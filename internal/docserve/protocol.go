package docserve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"atk/internal/datastream"
	"atk/internal/ops"
)

// Wire protocol. Every message is one logical line framed with the
// datastream payload-line discipline (AppendEscaped/DecodeAppend):
// printable 7-bit ASCII, backslash escapes for everything else — newlines
// included — and continuation-wrapped physical lines. The same rules that
// let a document travel through mail (paper §5) let it travel through a
// socket, and let a whole document snapshot ride inside a single logical
// line.
//
// Client -> server:
//
//	hello atkdoc1 <doc> <clientID>                  first attach
//	hello atkdoc1 <doc> <clientID> <epoch> <since>  reconnect, ops wanted
//	op <clientSeq> <baseSeq> <k> <len>:<payload>... speculative edit group
//	ping <token>
//	bye
//
// Server -> client:
//
//	snapr <epoch> <seq> <total> <offset> <chunk>   one snapshot range frame:
//	                                               chunk is bytes
//	                                               [offset, offset+len) of a
//	                                               total-byte document; ranges
//	                                               arrive in order, gapless,
//	                                               and the snapshot applies
//	                                               when offset+len == total
//	                                               (a document that fits one
//	                                               frame is one snapr at
//	                                               offset 0)
//	op <seq> <clientID> <clientSeq> <payload>      one committed edit
//	ok <clientSeq> <n> <hi>                        ack: group committed as
//	                                               n records ending at hi
//	live <seq>                                     catch-up done, stream on
//	pong <token>
//	err <reason>                                   fatal; connection closes
//	bye                                            session kicked, no retry
//	bye <reason> <retry-after-ms>                  graceful drain: the host is
//	                                               going away on purpose;
//	                                               reconnect no sooner than
//	                                               retry-after-ms from now
//	                                               (a floor on the first
//	                                               redial delay — jitter
//	                                               spreads clients above it,
//	                                               never below)
//
// An op group's records are length-prefixed (byte length of the payload,
// then ':', then the payload verbatim) because record payloads contain
// spaces. Everything else is space-separated with the free-form field
// last.

// Proto is the protocol identifier expected in hello.
const Proto = "atkdoc1"

// Frame limits. A hostile or broken peer gets a protocol error, never an
// unbounded allocation.
const (
	// MaxFrameBytes bounds one decoded logical line (the snapshot is the
	// big one; 8 MiB of escaped document is a very large document).
	MaxFrameBytes = 8 << 20
	// MaxPhysicalLine bounds one physical line. The writer wraps at 80
	// columns; tolerating more costs nothing, but a line that never ends
	// is an attack, not a document.
	MaxPhysicalLine = 1 << 16
	// MaxRecordsPerOp bounds one op group.
	MaxRecordsPerOp = 1024
)

// Protocol errors.
var (
	errFrameTooLong = errors.New("docserve: frame exceeds limit")
	errBadFrame     = errors.New("docserve: malformed frame")
)

// newFrameReader returns the frame reader a connection keeps for life:
// a line reader whose buffer holds what the peer sent ahead. Physical
// lines are read with bounded memory: a line that keeps going past
// MaxPhysicalLine aborts with errFrameTooLong before it is buffered, so
// a peer streaming bytes with no newline (pre-hello, unauthenticated)
// costs bounded memory.
func newFrameReader(r io.Reader) *datastream.LineReader {
	return datastream.NewLineReader(bufio.NewReader(r), MaxPhysicalLine)
}

// readFrame reads one frame: a logical line of at most MaxFrameBytes,
// its escapes undone. A connection that closes inside a frame is an
// error, io.ErrUnexpectedEOF; one that closes between frames is io.EOF.
func readFrame(fr *datastream.LineReader) (string, error) {
	b, err := fr.ReadLogical(MaxFrameBytes)
	switch {
	case err == nil:
		return string(b), nil
	case errors.Is(err, datastream.ErrLimit):
		return "", errFrameTooLong
	case errors.Is(err, datastream.ErrSyntax):
		return "", fmt.Errorf("%w: %v", errBadFrame, err)
	case err == datastream.ErrNoNewline:
		return "", io.ErrUnexpectedEOF
	}
	return "", err
}

// nameOK restricts document and client names to a safe token alphabet so
// they can sit between spaces on the wire.
func nameOK(s string) bool {
	if s == "" || len(s) > 256 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-' || r == '/' || r == ':':
		default:
			return false
		}
	}
	return true
}

// helloMsg is a parsed hello.
type helloMsg struct {
	doc      string
	clientID string
	// resume is true when the client presented an epoch+since pair.
	resume bool
	epoch  uint64
	since  uint64
}

func encodeHello(doc, clientID string) string {
	return fmt.Sprintf("hello %s %s %s", Proto, doc, clientID)
}

func encodeHelloResume(doc, clientID string, epoch, since uint64) string {
	return fmt.Sprintf("hello %s %s %s %d %d", Proto, doc, clientID, epoch, since)
}

func parseHello(frame string) (helloMsg, error) {
	f := strings.Fields(frame)
	if len(f) < 4 || f[0] != "hello" {
		return helloMsg{}, fmt.Errorf("%w: want hello", errBadFrame)
	}
	if f[1] != Proto {
		return helloMsg{}, fmt.Errorf("docserve: protocol %q not supported (want %s)", f[1], Proto)
	}
	h := helloMsg{doc: f[2], clientID: f[3]}
	if !nameOK(h.doc) || !nameOK(h.clientID) {
		return helloMsg{}, fmt.Errorf("%w: bad document or client name", errBadFrame)
	}
	switch len(f) {
	case 4:
		return h, nil
	case 6:
		epoch, err1 := strconv.ParseUint(f[4], 10, 64)
		since, err2 := strconv.ParseUint(f[5], 10, 64)
		if err1 != nil || err2 != nil {
			return helloMsg{}, fmt.Errorf("%w: bad resume point", errBadFrame)
		}
		h.resume, h.epoch, h.since = true, epoch, since
		return h, nil
	default:
		return helloMsg{}, fmt.Errorf("%w: hello field count", errBadFrame)
	}
}

// appendOpGroup appends the client op group line
// "op <clientSeq> <baseSeq> <k> <len>:<payload>...".
func appendOpGroup(dst []byte, clientSeq, baseSeq uint64, recs []ops.Op) []byte {
	dst = append(dst, "op "...)
	dst = strconv.AppendUint(dst, clientSeq, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, baseSeq, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(len(recs)), 10)
	dst = append(dst, ' ')
	for _, r := range recs {
		// Encode the record in place, then open room in front of it for
		// its length prefix: one buffer, no per-record scratch.
		start := len(dst)
		dst = ops.MustAppend(dst, r)
		var pre [24]byte
		p := append(strconv.AppendInt(pre[:0], int64(len(dst)-start), 10), ':')
		dst = append(dst, p...)
		copy(dst[start+len(p):], dst[start:len(dst)-len(p)])
		copy(dst[start:], p)
	}
	return dst
}

// opGroupMsg is a parsed client op group.
type opGroupMsg struct {
	clientSeq uint64
	baseSeq   uint64
	payloads  []string
}

func parseOpGroup(frame string) (opGroupMsg, error) {
	rest, ok := strings.CutPrefix(frame, "op ")
	if !ok {
		return opGroupMsg{}, errBadFrame
	}
	var g opGroupMsg
	var k int
	// Three numeric fields, then the length-prefixed blob.
	for i := 0; i < 3; i++ {
		sp := strings.IndexByte(rest, ' ')
		if sp <= 0 {
			return opGroupMsg{}, fmt.Errorf("%w: op header", errBadFrame)
		}
		v, err := strconv.ParseUint(rest[:sp], 10, 64)
		if err != nil {
			return opGroupMsg{}, fmt.Errorf("%w: op header: %v", errBadFrame, err)
		}
		switch i {
		case 0:
			g.clientSeq = v
		case 1:
			g.baseSeq = v
		case 2:
			k = int(v)
		}
		rest = rest[sp+1:]
	}
	if k < 0 || k > MaxRecordsPerOp {
		return opGroupMsg{}, fmt.Errorf("%w: %d records in one op", errBadFrame, k)
	}
	for i := 0; i < k; i++ {
		colon := strings.IndexByte(rest, ':')
		if colon <= 0 || colon > 9 {
			return opGroupMsg{}, fmt.Errorf("%w: record length prefix", errBadFrame)
		}
		n, err := strconv.Atoi(rest[:colon])
		if err != nil || n < 0 || n > len(rest)-colon-1 {
			return opGroupMsg{}, fmt.Errorf("%w: record length", errBadFrame)
		}
		g.payloads = append(g.payloads, rest[colon+1:colon+1+n])
		rest = rest[colon+1+n:]
	}
	if rest != "" {
		return opGroupMsg{}, fmt.Errorf("%w: trailing bytes after op group", errBadFrame)
	}
	return g, nil
}

// Server-side frames. Each encoder appends one logical line; the caller
// escapes it onto the wire (see frameBuf).

// appendCommitted appends "op <seq> <clientID> <clientSeq> <payload>".
func appendCommitted(dst []byte, seq uint64, clientID string, clientSeq uint64, payload string) []byte {
	dst = append(dst, "op "...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, ' ')
	dst = append(dst, clientID...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, clientSeq, 10)
	dst = append(dst, ' ')
	return append(dst, payload...)
}

// appendAck appends "ok <clientSeq> <n> <hi>".
func appendAck(dst []byte, clientSeq uint64, n int, hi uint64) []byte {
	dst = append(dst, "ok "...)
	dst = strconv.AppendUint(dst, clientSeq, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, ' ')
	return strconv.AppendUint(dst, hi, 10)
}

// appendLive appends "live <seq>".
func appendLive(dst []byte, seq uint64) []byte {
	return strconv.AppendUint(append(dst, "live "...), seq, 10)
}

// appendSnapRange appends "snapr <epoch> <seq> <total> <offset> <chunk>".
func appendSnapRange(dst []byte, epoch, seq uint64, total, offset int, chunk []byte) []byte {
	dst = append(dst, "snapr "...)
	dst = strconv.AppendUint(dst, epoch, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(total), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(offset), 10)
	dst = append(dst, ' ')
	return append(dst, chunk...)
}

// committedMsg is a parsed server-committed op.
type committedMsg struct {
	seq       uint64
	clientID  string
	clientSeq uint64
	payload   string
}

func parseCommitted(frame string) (committedMsg, error) {
	// Manual field walk, no SplitN slice: this parse runs once per
	// committed op per replica, the single hottest line in a read-mostly
	// client.
	rest, ok := strings.CutPrefix(frame, "op ")
	if !ok {
		return committedMsg{}, fmt.Errorf("%w: committed op", errBadFrame)
	}
	var m committedMsg
	for i := 0; i < 3; i++ {
		sp := strings.IndexByte(rest, ' ')
		if sp <= 0 {
			return committedMsg{}, fmt.Errorf("%w: committed op", errBadFrame)
		}
		field := rest[:sp]
		rest = rest[sp+1:]
		switch i {
		case 0:
			seq, err := strconv.ParseUint(field, 10, 64)
			if err != nil {
				return committedMsg{}, fmt.Errorf("%w: committed op header", errBadFrame)
			}
			m.seq = seq
		case 1:
			if !nameOK(field) {
				return committedMsg{}, fmt.Errorf("%w: committed op header", errBadFrame)
			}
			m.clientID = field
		case 2:
			cseq, err := strconv.ParseUint(field, 10, 64)
			if err != nil {
				return committedMsg{}, fmt.Errorf("%w: committed op header", errBadFrame)
			}
			m.clientSeq = cseq
		}
	}
	m.payload = rest
	return m, nil
}

// fields3 parses "<verb> <a> <b> <c>" with numeric a/b/c.
func fields3(frame, verb string) (a, b, c uint64, err error) {
	f := strings.Fields(frame)
	if len(f) != 4 || f[0] != verb {
		return 0, 0, 0, fmt.Errorf("%w: %s", errBadFrame, verb)
	}
	a, err1 := strconv.ParseUint(f[1], 10, 64)
	b, err2 := strconv.ParseUint(f[2], 10, 64)
	c, err3 := strconv.ParseUint(f[3], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, fmt.Errorf("%w: %s fields", errBadFrame, verb)
	}
	return a, b, c, nil
}

// verbOf returns the first word of a frame.
func verbOf(frame string) string {
	if sp := strings.IndexByte(frame, ' '); sp >= 0 {
		return frame[:sp]
	}
	return frame
}

// restOf returns everything after the first n space-separated fields.
func restOf(frame string, n int) (string, bool) {
	for i := 0; i < n; i++ {
		sp := strings.IndexByte(frame, ' ')
		if sp < 0 {
			return "", false
		}
		frame = frame[sp+1:]
	}
	return frame, true
}
