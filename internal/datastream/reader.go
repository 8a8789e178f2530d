package datastream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// TokenKind discriminates reader tokens.
type TokenKind int

// Token kinds.
const (
	TokBegin TokenKind = iota // \begindata{Type,ID}
	TokEnd                    // \enddata{Type,ID}
	TokView                   // \view{Type,ID}
	TokText                   // one logical line of decoded payload text
)

// String names the kind.
func (k TokenKind) String() string {
	switch k {
	case TokBegin:
		return "begin"
	case TokEnd:
		return "end"
	case TokView:
		return "view"
	case TokText:
		return "text"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

// Token is one event from the stream. Text tokens carry one decoded
// logical line WITHOUT its trailing newline; continuation-wrapped physical
// lines have already been joined. Line is the physical line (1-based) on
// which the token started — for a continuation-joined text token, the
// first of its physical lines.
type Token struct {
	Kind TokenKind
	Type string
	ID   int
	Text string
	Line int
}

// Mode selects how the reader treats malformed input.
type Mode int

// Reader modes.
const (
	// Strict fails on the first malformed marker, bad nesting, or bad
	// escape — the mode every writer-produced stream must satisfy.
	Strict Mode = iota
	// Lenient resynchronizes at marker boundaries instead of failing:
	// junk lines are dropped, unmatched markers are reconciled against the
	// open-object stack, and objects left open at EOF are closed with
	// synthesized end tokens. Every repair is recorded as a
	// ParseDiagnostic. Lenient reads fail only on I/O errors or resource
	// limits (ErrLimit), never on malformed content.
	Lenient
)

// ErrLimit reports that a stream exceeded a resource limit. Limits are
// enforced in both modes and are never recovered from: they protect
// memory, not format compatibility.
var ErrLimit = errors.New("datastream: resource limit exceeded")

// Limits bounds what a single stream may consume. A zero field takes the
// corresponding DefaultLimits value.
type Limits struct {
	// MaxDepth is the maximum begin/end nesting depth.
	MaxDepth int
	// MaxLineBytes is the maximum length of one physical line, its
	// newline not counted. Writers keep lines under 80 columns, but
	// readers must survive hostile input that never supplies a newline.
	MaxLineBytes int
	// MaxPayloadBytes caps the total decoded payload text delivered over
	// the reader's lifetime, bounding what a document can make its
	// consumers buffer.
	MaxPayloadBytes int
}

// DefaultLimits are generous enough for any legitimate document while
// still bounding hostile ones.
var DefaultLimits = Limits{
	MaxDepth:        4096,
	MaxLineBytes:    1 << 20, // 1 MiB
	MaxPayloadBytes: 1 << 28, // 256 MiB
}

// ParseDiagnostic records one repair made by a lenient reader (or a
// salvage performed by a higher layer), located by physical line.
type ParseDiagnostic struct {
	Line int
	Msg  string
}

// String formats the diagnostic for human consumption.
func (d ParseDiagnostic) String() string {
	return fmt.Sprintf("line %d: %s", d.Line, d.Msg)
}

// maxDiagnostics caps the diagnostic list so a hostile document cannot
// grow it without bound; repairs past the cap still happen, silently.
const maxDiagnostics = 1000

// Options configures a Reader beyond the strict defaults.
type Options struct {
	Mode   Mode
	Limits Limits
}

// Reader parses external representations. It validates marker nesting as
// it goes and supports skipping a whole object without parsing its
// payload. In Lenient mode it additionally recovers from malformed input;
// see Mode.
type Reader struct {
	lr     *LineReader
	src    io.Reader
	stack  []openObj
	mode   Mode
	limits Limits
	diags  []ParseDiagnostic
	// lastLine is the starting line of the last token returned by Next.
	lastLine int
	// payload is the total decoded payload bytes delivered so far.
	payload int
	// peeked holds a token pushed back by Peek, when hasPeek is set.
	peeked  Token
	hasPeek bool
	// synth holds pending synthesized end tokens queued by lenient
	// recovery; they are delivered (and the stack popped) before any new
	// input is read.
	synth []Token
}

// NewReader returns a strict Reader with default limits consuming r.
func NewReader(r io.Reader) *Reader {
	return NewReaderOptions(r, Options{})
}

// NewReaderOptions returns a Reader with the given mode and limits.
func NewReaderOptions(r io.Reader, opts Options) *Reader {
	lim := opts.Limits
	if lim.MaxDepth <= 0 {
		lim.MaxDepth = DefaultLimits.MaxDepth
	}
	if lim.MaxLineBytes <= 0 {
		lim.MaxLineBytes = DefaultLimits.MaxLineBytes
	}
	if lim.MaxPayloadBytes <= 0 {
		lim.MaxPayloadBytes = DefaultLimits.MaxPayloadBytes
	}
	return &Reader{lr: NewLineReader(bufio.NewReader(r), lim.MaxLineBytes), src: r, mode: opts.Mode, limits: lim}
}

// Remaining returns how many bytes of the stream are left to read, when
// its source says how many it holds (a *bytes.Reader or a
// *strings.Reader: anything with a Len method), and 0 when it does not.
// A reader of an object can size its buffers from it.
func (r *Reader) Remaining() int {
	src, ok := r.src.(interface{ Len() int })
	if !ok {
		return 0
	}
	return r.lr.br.Buffered() + src.Len()
}

// Mode returns the reader's error-handling mode.
func (r *Reader) Mode() Mode { return r.mode }

// Lenient reports whether the reader recovers from malformed input.
func (r *Reader) Lenient() bool { return r.mode == Lenient }

// Diagnostics returns the repairs recorded so far, in stream order. The
// slice is owned by the reader; callers must not modify it.
func (r *Reader) Diagnostics() []ParseDiagnostic { return r.diags }

// AddDiagnostic lets higher layers (object restoration, component
// parsers) record salvage decisions in the same report as the reader's
// own repairs.
func (r *Reader) AddDiagnostic(line int, format string, args ...any) {
	if len(r.diags) < maxDiagnostics {
		r.diags = append(r.diags, ParseDiagnostic{Line: line, Msg: fmt.Sprintf(format, args...)})
	}
}

// Line returns the physical line number (1-based) on which the last token
// returned by Next started. Peek does not advance it; a continuation-
// joined text token reports its first physical line. Zero before the
// first token.
func (r *Reader) Line() int { return r.lastLine }

// Depth returns how many objects are currently open.
func (r *Reader) Depth() int { return len(r.stack) }

// Next returns the next token, or io.EOF when the stream ends. At EOF any
// still-open object is reported as ErrBadNesting (strict) or closed with
// synthesized end tokens (lenient).
func (r *Reader) Next() (Token, error) {
	if r.hasPeek {
		r.hasPeek = false
		r.lastLine = r.peeked.Line
		return r.peeked, nil
	}
	t, err := r.next(nil)
	if err == nil {
		r.lastLine = t.Line
	}
	return t, err
}

// Peek returns the next token without consuming it. Line() is unaffected
// until the token is actually consumed by Next.
func (r *Reader) Peek() (Token, error) {
	if !r.hasPeek {
		t, err := r.next(nil)
		if err != nil {
			return t, err
		}
		r.peeked, r.hasPeek = t, true
	}
	return r.peeked, nil
}

// popSynth delivers one queued synthesized end token, keeping the stack
// in step with what consumers have seen.
func (r *Reader) popSynth() Token {
	t := r.synth[0]
	r.synth = r.synth[1:]
	if t.Kind == TokEnd && len(r.stack) > 0 {
		r.stack = r.stack[:len(r.stack)-1]
	}
	return t
}

// next reads the next token. A text token's logical line is decoded
// onto *dst when dst is not nil, leaving the token's Text empty, and into
// Text otherwise.
func (r *Reader) next(dst *[]byte) (Token, error) {
	for {
		if len(r.synth) > 0 {
			return r.popSynth(), nil
		}
		raw, err := r.lr.ReadLine()
		if err == ErrNoNewline {
			err = nil // a final line without a newline is still a line
		}
		if err != nil {
			if err == io.EOF && len(r.stack) > 0 {
				line := r.lr.Lines()
				if r.mode == Lenient {
					for i := len(r.stack) - 1; i >= 0; i-- {
						o := r.stack[i]
						r.AddDiagnostic(line, "EOF with %s,%d still open; closed implicitly", o.typ, o.id)
						r.synth = append(r.synth, Token{Kind: TokEnd, Type: o.typ, ID: o.id, Line: line})
					}
					continue
				}
				top := r.stack[len(r.stack)-1]
				return Token{}, fmt.Errorf("%w: EOF with %s,%d open (line %d)",
					ErrBadNesting, top.typ, top.id, line)
			}
			return Token{}, err
		}
		startLine := r.lr.Lines()
		t := Token{Kind: TokText}
		if len(raw) > 0 && raw[0] == '\\' {
			var perr error
			if t, perr = ParseMarker(string(raw)); perr != nil {
				if r.mode == Lenient {
					r.AddDiagnostic(startLine, "malformed %s marker dropped: %v", t.Kind, perr)
					continue
				}
				return Token{}, fmt.Errorf("%w at line %d: %v", ErrSyntax, startLine, perr)
			}
		}
		t.Line = startLine
		switch t.Kind {
		case TokBegin:
			if len(r.stack) >= r.limits.MaxDepth {
				return Token{}, fmt.Errorf("%w: nesting deeper than %d (line %d)",
					ErrLimit, r.limits.MaxDepth, startLine)
			}
			r.stack = append(r.stack, openObj{t.Type, t.ID})
			return t, nil
		case TokEnd:
			typ, id := t.Type, t.ID
			if len(r.stack) == 0 {
				if r.mode == Lenient {
					r.AddDiagnostic(startLine, "enddata{%s,%d} with nothing open; dropped", typ, id)
					continue
				}
				return Token{}, fmt.Errorf("%w: enddata{%s,%d} with nothing open (line %d)",
					ErrBadNesting, typ, id, startLine)
			}
			top := r.stack[len(r.stack)-1]
			if top.typ != typ || top.id != id {
				if r.mode == Lenient {
					match := -1
					for i := len(r.stack) - 1; i >= 0; i-- {
						if r.stack[i].typ == typ && r.stack[i].id == id {
							match = i
							break
						}
					}
					if match < 0 {
						r.AddDiagnostic(startLine, "enddata{%s,%d} matches no open object; dropped", typ, id)
						continue
					}
					// The marker closes an outer object: everything opened
					// inside it was left unterminated. Close the
					// intermediates implicitly, then the matched object;
					// the stack is popped as each token is delivered.
					for i := len(r.stack) - 1; i > match; i-- {
						o := r.stack[i]
						r.AddDiagnostic(startLine, "enddata{%s,%d} implicitly closes %s,%d", typ, id, o.typ, o.id)
						r.synth = append(r.synth, Token{Kind: TokEnd, Type: o.typ, ID: o.id, Line: startLine})
					}
					r.synth = append(r.synth, t)
					continue
				}
				return Token{}, fmt.Errorf("%w: enddata{%s,%d} closes begindata{%s,%d} (line %d)",
					ErrBadNesting, typ, id, top.typ, top.id, startLine)
			}
			r.stack = r.stack[:len(r.stack)-1]
			return t, nil
		case TokView:
			return t, nil
		}
		// Payload text: decode escapes, joining continuation lines.
		budget := r.limits.MaxPayloadBytes - r.payload
		var text []byte
		if dst != nil {
			start := len(*dst)
			*dst, err = r.lr.JoinAppend(*dst, raw, start+budget)
			text = (*dst)[start:]
		} else {
			text, err = r.lr.Join(raw, budget)
		}
		switch se, bad := err.(*SyntaxError); {
		case err == nil, err == ErrNoNewline:
		case bad && r.mode == Lenient:
			r.AddDiagnostic(se.Line, "undecodable payload line dropped: %v", se.Err)
			if dst != nil {
				*dst = (*dst)[:len(*dst)-len(text)]
			}
			continue
		case errors.Is(err, ErrLimit) && len(text) > budget:
			return Token{}, fmt.Errorf("%w: payload exceeds %d bytes (line %d)",
				ErrLimit, r.limits.MaxPayloadBytes, r.lr.Lines())
		case err == io.ErrUnexpectedEOF && r.mode == Lenient:
			// Keep what was decoded; the next call deals with EOF (and
			// any still-open objects).
			r.AddDiagnostic(r.lr.Lines(), "EOF in continuation; partial line kept")
		case err == io.ErrUnexpectedEOF:
			return Token{}, fmt.Errorf("%w: EOF in continuation (line %d)", ErrSyntax, r.lr.Lines())
		default:
			return Token{}, err
		}
		r.payload += len(text)
		if dst != nil {
			return Token{Kind: TokText, Line: startLine}, nil
		}
		return Token{Kind: TokText, Text: string(text), Line: startLine}, nil
	}
}

// markerPrefixes maps each marker's line prefix to its token kind.
var markerPrefixes = [...]struct {
	prefix string
	kind   TokenKind
}{
	{`\begindata{`, TokBegin},
	{`\enddata{`, TokEnd},
	{`\view{`, TokView},
}

// ParseMarker parses one physical line as a marker — \begindata{type,id},
// \enddata{type,id} or \view{type,id} — returning its token without a
// Line. Any other line is payload (it can never begin with a marker
// prefix, since every literal backslash is doubled) and yields a TokText
// token with no Text: decoding it is the caller's business. A line with
// a marker prefix but a malformed body is an error, reported with the
// marker's kind.
func ParseMarker(line string) (Token, error) {
	for _, m := range markerPrefixes {
		if !strings.HasPrefix(line, m.prefix) {
			continue
		}
		t := Token{Kind: m.kind}
		body := line[len(m.prefix):]
		if !strings.HasSuffix(body, "}") {
			return t, fmt.Errorf("missing closing brace in %q", line)
		}
		body = body[:len(body)-1]
		comma := strings.LastIndexByte(body, ',')
		if comma < 0 {
			return t, fmt.Errorf("missing comma in %q", line)
		}
		t.Type = strings.TrimSpace(body[:comma])
		if err := checkTypeName(t.Type); err != nil {
			return t, err
		}
		idStr := strings.TrimSpace(body[comma+1:])
		id, err := strconv.Atoi(idStr)
		if err != nil {
			return t, fmt.Errorf("bad id %q", idStr)
		}
		t.ID = id
		return t, nil
	}
	return Token{Kind: TokText}, nil
}

// SkipObject consumes tokens until the object opened by the given begin
// token is closed, without interpreting any payload. This is the paper's
// requirement that "it must be possible to find all the data associated
// with an object without actually parsing the data": an application that
// cannot (yet) handle a type still skips it cleanly — or hands the marker
// range to the class system to demand-load a handler.
func (r *Reader) SkipObject(begin Token) error {
	if begin.Kind != TokBegin {
		return fmt.Errorf("%w: SkipObject needs a begin token", ErrSyntax)
	}
	depth := 1
	for depth > 0 {
		t, err := r.Next()
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("%w: EOF while skipping %s,%d", ErrBadNesting, begin.Type, begin.ID)
			}
			return err
		}
		switch t.Kind {
		case TokBegin:
			depth++
		case TokEnd:
			depth--
		}
	}
	return nil
}

// CollectText reads consecutive text tokens, returning the concatenated
// logical lines (newline separated) and the first non-text token, which is
// left un-consumed for the caller.
func (r *Reader) CollectText() (string, error) {
	b, err := r.AppendText(nil)
	return string(b), err
}

// AppendText reads consecutive text tokens as CollectText does, but
// appends their logical lines, newline separated, to dst: each line is
// decoded straight onto it, with no string made per line. The first
// non-text token is left for the caller.
func (r *Reader) AppendText(dst []byte) ([]byte, error) {
	for n := 0; ; n++ {
		mark := len(dst)
		if n > 0 {
			dst = append(dst, '\n')
		}
		t := r.peeked
		if r.hasPeek {
			r.hasPeek = false
			dst = append(dst, t.Text...)
		} else {
			var err error
			if t, err = r.next(&dst); err != nil {
				return dst[:mark], err
			}
		}
		if t.Kind != TokText {
			r.peeked, r.hasPeek = t, true
			return dst[:mark], nil
		}
		r.lastLine = t.Line
	}
}
