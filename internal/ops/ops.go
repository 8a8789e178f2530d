// Package ops is the component-typed operation model for collaborative
// editing: the bridge between "a document is one text buffer" and "a
// document is a tree of components". The replication and journaling
// layers (internal/docserve, internal/persist) used to speak raw
// text.EditRecord; every table or embed mutation was an unjournalable
// reset that forced a host checkpoint and a full resync. Here instead an
// operation is (kind, payload), and a registry maps each component kind
// to its codec and transform:
//
//	text    wraps text.EditRecord unchanged — and keeps its untagged wire
//	        form, so every existing journal and op stream decodes as
//	        kind=text with zero migration
//	table   cell-set and row/col insert/delete, addressed by the anchor
//	        position of the table's embed in the document; they commute
//	        via cell-address index shifting, with cell-set/cell-set
//	        conflicts resolved last-writer-wins by server order
//	embed   inserts a whole component — a \begindata payload applied
//	        through the lenient datastream reader — at a text position,
//	        transforming exactly like a one-rune text insert
//
// Wire format: a text op is the bare EditRecord form (`i …`, `d …`,
// `s …`, `x …`); every other kind is tagged `t <kind> <payload>`. Text
// record verbs never start with 't', so the discriminator is one prefix
// check and old frames are forward-compatible by construction.
//
// Cross-kind transforms go through one shared abstraction, the text
// Footprint: how an op splices the document's rune sequence. Text
// inserts/deletes have their own; an embed-insert is a one-rune insert;
// table ops have none (they mutate state *behind* an anchor). An op
// rebases across a foreign-kind op by mapping its addresses over that
// footprint — which is exactly how the document itself shifts anchors —
// so a table op follows its table around concurrent text edits and dies
// with it when a concurrent delete swallows the anchor.
package ops

import (
	"fmt"
	"strconv"
	"strings"

	"atk/internal/table"
	"atk/internal/text"
)

// Component kinds with registered codecs.
const (
	KindText  = "text"
	KindTable = "table"
	KindEmbed = "embed"
)

// Op is one committed (or about-to-commit) operation: a kind tag plus the
// kind's payload. Exactly one payload field is meaningful.
type Op struct {
	Kind  string
	Text  text.EditRecord // KindText
	Table TableOp         // KindTable
	Embed EmbedOp         // KindEmbed
}

// TableOp addresses one table-local mutation at the anchor position of
// the table's embed in the document. The position is state-relative like
// every other op address: transforms shift it across concurrent text
// edits, and a delete that swallows the anchor kills the op.
type TableOp struct {
	Pos int
	Op  table.Op
}

// EmbedOp inserts a component at Pos: Payload is its complete external
// representation (\begindata…\enddata), ViewName selects the view ("" =
// the object's default).
type EmbedOp struct {
	Pos      int
	ViewName string
	Payload  []byte
}

// TextOp wraps an EditRecord as an Op.
func TextOp(rec text.EditRecord) Op { return Op{Kind: KindText, Text: rec} }

// IsReset reports whether op marks a mutation the op model cannot express
// (a text RecReset or a table OpReset): such ops never travel — the
// replication layer surfaces and counts them instead.
func IsReset(op Op) (reason string, ok bool) {
	switch op.Kind {
	case KindText:
		if op.Text.Kind == text.RecReset {
			return op.Text.Text, true
		}
	case KindTable:
		if op.Table.Op.Kind == table.OpReset {
			return op.Table.Op.Reason, true
		}
	}
	return "", false
}

// Footprint is how an op splices the document's rune sequence: Ins runes
// inserted at Pos, or Del runes removed at Pos. The zero Footprint means
// the op moves no text positions.
type Footprint struct {
	Pos int
	Ins int
	Del int
}

// Codec binds one component kind to its wire codec, its applier, and its
// transform rules. Same-kind pairs rebase through Xform; cross-kind pairs
// rebase by Shift-ing one op's addresses across the other's Footprint.
type Codec struct {
	Kind string
	// Decode parses the kind-local payload (the part after "t <kind> ",
	// or the whole frame for the untagged text kind).
	Decode func(payload string) (Op, error)
	// Append appends op's complete wire form (tag included) to dst.
	Append func(dst []byte, op Op) []byte
	// Apply applies op to doc with logging and undo capture suppressed;
	// observers are notified as for a local edit.
	Apply func(doc *text.Data, op Op) error
	// Xform rewrites a — valid in state C — to be valid in C+b, for two
	// ops of this kind. aLater is the server-order tiebreak.
	Xform func(a, b Op, aLater bool) []Op
	// Shift rewrites this kind's op a across a foreign op's footprint.
	// Never called with the zero footprint.
	Shift func(a Op, f Footprint, aLater bool) []Op
	// Footprint reports how op splices the rune sequence.
	Footprint func(op Op) Footprint
}

// Registry maps component kinds to codecs. The zero value is unusable;
// NewRegistry returns an empty one and Default carries the built-in set.
type Registry struct {
	m map[string]*Codec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: map[string]*Codec{}} }

// Register adds c; a duplicate kind is an error.
func (r *Registry) Register(c *Codec) error {
	if c == nil || c.Kind == "" {
		return fmt.Errorf("ops: codec with empty kind")
	}
	if _, dup := r.m[c.Kind]; dup {
		return fmt.Errorf("ops: kind %q registered twice", c.Kind)
	}
	r.m[c.Kind] = c
	return nil
}

// Codec returns the codec for kind, nil when unregistered.
func (r *Registry) Codec(kind string) *Codec { return r.m[kind] }

// Default is the built-in registry: text, table, embed.
var Default = func() *Registry {
	r := NewRegistry()
	for _, c := range []*Codec{textCodec(), tableCodec(), embedCodec()} {
		if err := r.Register(c); err != nil {
			panic(err)
		}
	}
	return r
}()

// Decode parses one wire payload: a "t <kind> <payload>" tagged frame
// dispatches to that kind's codec; anything else decodes as a bare text
// record — which is how every journal and op stream written before this
// package existed replays unchanged.
func (r *Registry) Decode(s string) (Op, error) {
	if rest, ok := strings.CutPrefix(s, "t "); ok {
		kind, payload, _ := strings.Cut(rest, " ")
		c := r.m[kind]
		if c == nil || kind == KindText {
			// Text ops travel untagged; an unknown kind is from a newer
			// peer (or hostile) — either way undecodable here.
			return Op{}, fmt.Errorf("ops: unknown op kind %q", kind)
		}
		return c.Decode(payload)
	}
	rec, err := text.DecodeRecord(s)
	if err != nil {
		return Op{}, err
	}
	return TextOp(rec), nil
}

// Append appends op's wire form to dst.
func (r *Registry) Append(dst []byte, op Op) ([]byte, error) {
	c := r.m[op.Kind]
	if c == nil {
		return dst, fmt.Errorf("ops: unknown op kind %q", op.Kind)
	}
	return c.Append(dst, op), nil
}

// Encode renders op's wire form as a string.
func (r *Registry) Encode(op Op) (string, error) {
	b, err := r.Append(nil, op)
	return string(b), err
}

// Apply applies one committed op to doc through its kind's codec.
func (r *Registry) Apply(doc *text.Data, op Op) error {
	c := r.m[op.Kind]
	if c == nil {
		return fmt.Errorf("ops: unknown op kind %q", op.Kind)
	}
	return c.Apply(doc, op)
}

// Xform rewrites a — valid in some state C — to be valid in C+b. aLater
// is the server-order tiebreak: true when a commits after b. Same-kind
// pairs go through the kind's transform; cross-kind pairs shift a's
// addresses across b's text footprint.
func (r *Registry) Xform(a, b Op, aLater bool) []Op {
	ca := r.m[a.Kind]
	cb := r.m[b.Kind]
	if ca == nil || cb == nil {
		return []Op{a} // unknown kinds were rejected at decode; be inert
	}
	if a.Kind == b.Kind {
		return ca.Xform(a, b, aLater)
	}
	f := cb.Footprint(b)
	if f.Ins == 0 && f.Del == 0 {
		return []Op{a}
	}
	return ca.Shift(a, f, aLater)
}

// XformDual rewrites two op sequences past each other: xs and ys are both
// valid in the same state C (each sequential within itself); the results
// are xs valid in C+ys and ys valid in C+xs. xsLater is the server-order
// side: every pairwise transform inside ties toward xs committing later.
func (r *Registry) XformDual(xs, ys []Op, xsLater bool) (xs2, ys2 []Op) {
	if len(xs) == 0 || len(ys) == 0 {
		// Clip capacities so a later append on a returned slice can never
		// scribble into the caller's backing array.
		return xs[:len(xs):len(xs)], ys[:len(ys):len(ys)]
	}
	if len(xs) == 1 && len(ys) == 1 {
		return r.Xform(xs[0], ys[0], xsLater), r.Xform(ys[0], xs[0], !xsLater)
	}
	if len(xs) > 1 {
		head, ys1 := r.XformDual(xs[:1], ys, xsLater)
		tail, ysOut := r.XformDual(xs[1:], ys1, xsLater)
		return append(head, tail...), ysOut
	}
	xs1, head := r.XformDual(xs, ys[:1], xsLater)
	xsOut, tail := r.XformDual(xs1, ys[1:], xsLater)
	return xsOut, append(head, tail...)
}

// --- package-level conveniences over Default -------------------------

// Decode parses one wire payload against the Default registry.
func Decode(s string) (Op, error) { return Default.Decode(s) }

// Append appends op's wire form against the Default registry.
func Append(dst []byte, op Op) ([]byte, error) { return Default.Append(dst, op) }

// Encode renders op's wire form against the Default registry.
func Encode(op Op) (string, error) { return Default.Encode(op) }

// MustEncode is Encode for ops built by this process (never hostile):
// an unencodable op is a programming error.
func MustEncode(op Op) string {
	s, err := Default.Encode(op)
	if err != nil {
		panic(err)
	}
	return s
}

// MustAppend is Append for ops built by this process.
func MustAppend(dst []byte, op Op) []byte {
	b, err := Default.Append(dst, op)
	if err != nil {
		panic(err)
	}
	return b
}

// Apply applies op to doc against the Default registry.
func Apply(doc *text.Data, op Op) error { return Default.Apply(doc, op) }

// Xform rewrites a across b (Default registry).
func Xform(a, b Op, aLater bool) []Op { return Default.Xform(a, b, aLater) }

// XformDual rewrites two sequences past each other (Default registry).
func XformDual(xs, ys []Op, xsLater bool) ([]Op, []Op) {
	return Default.XformDual(xs, ys, xsLater)
}

// parsePos parses a non-negative position token.
func parsePos(tok string) (int, error) {
	p, err := strconv.Atoi(tok)
	if err != nil || p < 0 {
		return 0, fmt.Errorf("ops: bad position %q", tok)
	}
	return p, nil
}
