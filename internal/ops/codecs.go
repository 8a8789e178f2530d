package ops

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"atk/internal/core"
	"atk/internal/datastream"
	"atk/internal/table"
	"atk/internal/text"
)

// The three built-in codecs. Each is a plain *Codec value so an
// application can compose its own registry from them (or replace one —
// the docserve host and client only ever dispatch through a Registry).

// --- text --------------------------------------------------------------

func textCodec() *Codec {
	return &Codec{
		Kind: KindText,
		Decode: func(payload string) (Op, error) {
			rec, err := text.DecodeRecord(payload)
			if err != nil {
				return Op{}, err
			}
			return TextOp(rec), nil
		},
		// Text ops travel untagged — their bare wire form IS the frame,
		// which is what keeps pre-registry journals and op streams
		// replayable.
		Append: func(dst []byte, op Op) []byte {
			return text.AppendRecord(dst, op.Text)
		},
		Apply: func(doc *text.Data, op Op) error {
			return doc.ApplyExternal(func() error { return doc.ApplyRecord(op.Text) })
		},
		Xform: func(a, b Op, aLater bool) []Op {
			return wrapText(XformText(a.Text, b.Text, aLater))
		},
		Shift: func(a Op, f Footprint, aLater bool) []Op {
			return wrapText(XformText(a.Text, synthRecord(f), aLater))
		},
		Footprint: func(op Op) Footprint {
			switch op.Text.Kind {
			case text.RecInsert:
				return Footprint{Pos: op.Text.Pos, Ins: runeCount(op.Text.Text)}
			case text.RecDelete:
				return Footprint{Pos: op.Text.Pos, Del: op.Text.N}
			default:
				return Footprint{} // style and reset move no positions
			}
		},
	}
}

func wrapText(recs []text.EditRecord) []Op {
	out := make([]Op, 0, len(recs))
	for _, r := range recs {
		out = append(out, TextOp(r))
	}
	return out
}

func runeCount(s string) int {
	n := 0
	for range s {
		n++
	}
	return n
}

// --- table -------------------------------------------------------------

// Wire form: `t table <pos> <table-payload>` where the payload is
// table.EncodeOp's cell-set / structural form.

func tableCodec() *Codec {
	return &Codec{
		Kind: KindTable,
		Decode: func(payload string) (Op, error) {
			posTok, rest, ok := strings.Cut(payload, " ")
			if !ok {
				return Op{}, fmt.Errorf("ops: bad table op %q", payload)
			}
			pos, err := parsePos(posTok)
			if err != nil {
				return Op{}, err
			}
			top, err := table.DecodeOp(rest)
			if err != nil {
				return Op{}, err
			}
			return Op{Kind: KindTable, Table: TableOp{Pos: pos, Op: top}}, nil
		},
		Append: func(dst []byte, op Op) []byte {
			dst = append(dst, "t table "...)
			dst = strconv.AppendInt(dst, int64(op.Table.Pos), 10)
			dst = append(dst, ' ')
			return table.AppendOp(dst, op.Table.Op)
		},
		Apply: func(doc *text.Data, op Op) error {
			e := doc.EmbeddedAt(op.Table.Pos)
			if e == nil {
				return fmt.Errorf("ops: no embedded object at %d for table op", op.Table.Pos)
			}
			td, ok := e.Obj.(*table.Data)
			if !ok {
				return fmt.Errorf("ops: object at %d is %T, not a table", op.Table.Pos, e.Obj)
			}
			return doc.ApplyExternal(func() error { return td.ApplyOp(op.Table.Op) })
		},
		Xform: func(a, b Op, aLater bool) []Op {
			if a.Table.Pos != b.Table.Pos {
				return []Op{a} // different tables: fully independent state
			}
			top, ok := xformTableOp(a.Table.Op, b.Table.Op, aLater)
			if !ok {
				return nil
			}
			a.Table.Op = top
			return []Op{a}
		},
		Shift: func(a Op, f Footprint, aLater bool) []Op {
			// The anchor moves exactly as the document moves it when the
			// foreign op applies; an op whose table was deleted dies.
			p, ok := mapPosFootprint(a.Table.Pos, f)
			if !ok {
				return nil
			}
			a.Table.Pos = p
			return []Op{a}
		},
		Footprint: func(Op) Footprint {
			return Footprint{} // table ops mutate state behind an anchor
		},
	}
}

// --- embed -------------------------------------------------------------

// Wire form: `t embed <pos> <view> <payload>` — view is "-" for the
// object's default, payload is a complete \begindata…\enddata external
// representation (newlines and all; framing is the transport's business,
// exactly as for inserted text containing newlines).

func embedCodec() *Codec {
	return &Codec{
		Kind: KindEmbed,
		Decode: func(payload string) (Op, error) {
			posTok, rest, ok := strings.Cut(payload, " ")
			if !ok {
				return Op{}, fmt.Errorf("ops: bad embed op %q", payload)
			}
			pos, err := parsePos(posTok)
			if err != nil {
				return Op{}, err
			}
			view, blob, ok := strings.Cut(rest, " ")
			if !ok || view == "" || blob == "" {
				return Op{}, fmt.Errorf("ops: bad embed op %q", payload)
			}
			if view == "-" {
				view = ""
			}
			return Op{Kind: KindEmbed, Embed: EmbedOp{Pos: pos, ViewName: view, Payload: []byte(blob)}}, nil
		},
		Append: func(dst []byte, op Op) []byte {
			dst = append(dst, "t embed "...)
			dst = strconv.AppendInt(dst, int64(op.Embed.Pos), 10)
			dst = append(dst, ' ')
			if op.Embed.ViewName == "" {
				dst = append(dst, '-')
			} else {
				dst = append(dst, op.Embed.ViewName...)
			}
			dst = append(dst, ' ')
			return append(dst, op.Embed.Payload...)
		},
		Apply: applyEmbed,
		Xform: func(a, b Op, aLater bool) []Op {
			// Two embed-inserts are two one-rune inserts: same tie rule.
			if a.Embed.Pos > b.Embed.Pos || (a.Embed.Pos == b.Embed.Pos && aLater) {
				a.Embed.Pos++
			}
			return []Op{a}
		},
		Shift: func(a Op, f Footprint, aLater bool) []Op {
			// Reuse the text insert rules on a synthesized one-rune insert,
			// so an embed-insert rebases (and is swallowed by deletes)
			// exactly like the anchor rune it will become.
			res := XformText(text.EditRecord{Kind: text.RecInsert, Pos: a.Embed.Pos, Text: "."},
				synthRecord(f), aLater)
			if len(res) == 0 {
				return nil
			}
			a.Embed.Pos = res[0].Pos
			return []Op{a}
		},
		Footprint: func(op Op) Footprint {
			return Footprint{Pos: op.Embed.Pos, Ins: 1} // one anchor rune
		},
	}
}

// applyEmbed instantiates the payload through the document's own class
// registry — read leniently, like any component arriving from outside
// this process — and splices it in at Pos as a local Embed would.
func applyEmbed(doc *text.Data, op Op) error {
	r := datastream.NewReaderOptions(bytes.NewReader(op.Embed.Payload),
		datastream.Options{Mode: datastream.Lenient})
	obj, err := core.ReadObject(r, doc.Registry())
	if err != nil {
		return fmt.Errorf("ops: embed payload: %w", err)
	}
	return doc.ApplyExternal(func() error {
		return doc.Embed(op.Embed.Pos, obj, op.Embed.ViewName)
	})
}
