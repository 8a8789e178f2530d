package persist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"atk/internal/datastream"
)

// The CRC record file is persist's one on-disk record format; the edit
// journal, the offset index and docserve's host-state sidecar are all
// record files. Each record is one logical line framed with the
// datastream writer's line discipline (printable 7-bit ASCII, backslash
// escapes, continuation-wrapped under 80 columns), carrying a sequence
// number and a CRC:
//
//	%atkjournal1
//	0 4f2a91c3 base 89ab12cd
//	1 0c77be01 i 12 hello
//	2 91d00a2f d 3 4
//
// The first line is the file's magic. Sequence numbers start at 0 and are
// consecutive, and each CRC covers "<seq> <payload>", so a reader detects
// truncation, bit rot, and splicing. What a reader does with damage is
// the caller's policy: journal replay keeps the valid prefix, while the
// offset index and the host-state sidecar reject the whole file
// (ReadRecordFile).

// appendFrameRecord appends one record's on-disk bytes (physical lines,
// each newline-terminated) onto dst, using scratch for the unescaped
// body; it returns the grown dst and scratch for reuse. The append path
// runs once per committed op on a replication host, so it reuses the
// caller's buffers instead of building throwaway strings.
func appendFrameRecord(dst, scratch []byte, seq uint64, payload string) (out, scratchOut []byte) {
	// Build the CRC input "<seq> <payload>" first, then open nine bytes
	// in the middle for the "<crc> " hex field — one buffer, no Sprintf.
	body := strconv.AppendUint(scratch[:0], seq, 10)
	body = append(body, ' ')
	seqLen := len(body)
	if utf8.ValidString(payload) {
		body = append(body, payload...)
	} else {
		// The escape encoder writes a byte that is not valid UTF-8 as
		// U+FFFD, so the CRC must cover the payload as a reader will
		// decode it, or the record reads back as damage.
		for _, r := range payload {
			body = utf8.AppendRune(body, r)
		}
	}
	crc := crc32.ChecksumIEEE(body)
	body = append(body, "000000000"...)
	copy(body[seqLen+9:], body[seqLen:len(body)-9])
	const hexDigits = "0123456789abcdef"
	for i, shift := 0, 28; shift >= 0; i, shift = i+1, shift-4 {
		body[seqLen+i] = hexDigits[(crc>>shift)&0xf]
	}
	body[seqLen+8] = ' '
	return datastream.AppendEscapedBytes(dst, body), body
}

// encodeRecords renders a whole record file: the magic line, then one
// record per payload, numbered from 0.
func encodeRecords(magic string, payloads []string) []byte {
	b := append([]byte(magic), '\n')
	var scratch []byte
	for i, p := range payloads {
		b, scratch = appendFrameRecord(b, scratch, uint64(i), p)
	}
	return b
}

// WriteRecordFile atomically replaces path with a record file holding
// payloads under magic: a crash leaves the old file or the whole new one.
func WriteRecordFile(fsys FS, path, magic string, payloads []string) error {
	b := encodeRecords(magic, payloads)
	return AtomicWrite(fsys, path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// ReadRecordFile reads the record file at path strictly: a wrong magic,
// or any torn, corrupt, or out-of-sequence record, is an error, because a
// half-trusted index or resume state is worse than none.
func ReadRecordFile(fsys FS, path, magic string) ([]string, error) {
	b, err := ReadFile(fsys, path)
	if err != nil {
		return nil, err
	}
	payloads, err := parseRecords(b, magic)
	if err != nil {
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	return payloads, nil
}

// parseRecords reads the bytes of a record file. It returns the payloads
// of the valid prefix and, when anything follows that prefix, an error
// describing the first damage.
func parseRecords(b []byte, magic string) ([]string, error) {
	lr := datastream.NewLineReader(bufio.NewReader(bytes.NewReader(b)), math.MaxInt)
	if line, err := lr.ReadLine(); err != nil || string(line) != magic {
		return nil, errors.New("bad magic line")
	}
	var payloads []string
	for {
		logical, err := lr.ReadLogical(math.MaxInt)
		switch {
		case err == io.EOF:
			return payloads, nil
		case err == datastream.ErrNoNewline:
			return payloads, errors.New("torn record at end of file (no newline)")
		case err == io.ErrUnexpectedEOF:
			return payloads, errors.New("continuation runs off end of file")
		case err != nil:
			return payloads, fmt.Errorf("undecodable record where seq %d expected: %v", len(payloads), err)
		}
		seq, payload, ok := parseRecord(string(logical))
		if !ok || seq != uint64(len(payloads)) {
			return payloads, fmt.Errorf("invalid record where seq %d expected", len(payloads))
		}
		payloads = append(payloads, payload)
	}
}

// parseRecord splits "<seq> <crc> <payload>" and verifies the CRC.
func parseRecord(body string) (seq uint64, payload string, ok bool) {
	sp1 := strings.IndexByte(body, ' ')
	if sp1 <= 0 {
		return 0, "", false
	}
	seq, err := strconv.ParseUint(body[:sp1], 10, 64)
	if err != nil {
		return 0, "", false
	}
	rest := body[sp1+1:]
	sp2 := strings.IndexByte(rest, ' ')
	if sp2 != 8 { // fixed-width %08x
		return 0, "", false
	}
	crc, err := strconv.ParseUint(rest[:8], 16, 32)
	if err != nil {
		return 0, "", false
	}
	payload = rest[9:]
	if uint32(crc) != crc32.ChecksumIEEE([]byte(strconv.FormatUint(seq, 10)+" "+payload)) {
		return 0, "", false
	}
	return seq, payload, true
}
