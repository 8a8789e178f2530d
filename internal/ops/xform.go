package ops

import (
	"unicode/utf8"

	"atk/internal/table"
	"atk/internal/text"
)

// Operational transform over text.EditRecord. The server totally orders
// all edits; every replica reaches the server's final state by rewriting
// ops across one another with these functions. The rules are the classic
// insert/delete rebase plus wholesale last-writer-wins for style records
// (a RecStyle carries the complete run list, exactly like undo does):
//
//   - an insert at or left of a position shifts it right;
//   - a delete left of a position shifts it left; a position inside a
//     deleted range collapses to the range start;
//   - an insert strictly inside a delete's range is swallowed by it: the
//     insert vanishes and the delete widens to cover the inserted text.
//     (The alternative — splitting the delete around the insert — keeps
//     the typed text but cannot converge on style runs: one order grows
//     the surrounding run around the insert, the other deletes the run
//     before the insert lands, and no state-free transform can repair
//     that. Text typed into a region someone else was deleting goes with
//     the region, deterministically, on every replica.);
//   - two overlapping deletes shrink to the not-yet-deleted remainder;
//   - of two concurrent style records the server-later one wins wholesale,
//     and inserts/deletes shift a style record's runs like the buffer's
//     own shiftForInsert/shiftForDelete do.
//
// Ties (two inserts at the same position) are broken by server order: the
// earlier-committed insert keeps the position, the later one shifts right.
// Both the server and every client run the same pairwise transforms over
// the same sequences in the same order, which is what makes the replicas
// byte-identical when the dust settles.
//
// The same index arithmetic reappears twice more in this file at table
// granularity: row/col structural ops transform against each other with
// the insert/delete rules above applied to row (or column) indices, and a
// cell-set's address shifts across structural ops the way a text position
// shifts across inserts and deletes. Cross-kind pairs reduce to the text
// rules too, through Footprint (see ops.go).

// XformText rewrites rec — valid in some document state C — to be valid
// in C+against (the state after `against` applied). recLater is the
// server ordering: true when rec is (or will be) committed after against.
// The result is a sequence (a record can vanish).
func XformText(rec, against text.EditRecord, recLater bool) []text.EditRecord {
	one := func() []text.EditRecord { return []text.EditRecord{rec} }
	switch against.Kind {
	case text.RecStyle:
		if rec.Kind == text.RecStyle {
			if recLater {
				return one() // later wholesale list wins
			}
			return nil // earlier list is superseded entirely
		}
		return one() // style changes move no positions

	case text.RecInsert:
		q, m := against.Pos, utf8.RuneCountInString(against.Text)
		switch rec.Kind {
		case text.RecInsert:
			if rec.Pos > q || (rec.Pos == q && recLater) {
				rec.Pos += m
			}
			return one()
		case text.RecDelete:
			p, n := rec.Pos, rec.N
			switch {
			case q <= p:
				rec.Pos += m
				return one()
			case q >= p+n:
				return one()
			default:
				// The insert landed strictly inside the range being
				// deleted: the delete swallows it (see the package rule
				// above — the dual case erases the insert).
				rec.N += m
				return one()
			}
		case text.RecStyle:
			rec.Runs = shiftRunsInsert(rec.Runs, q, m)
			return one()
		}

	case text.RecDelete:
		q, m := against.Pos, against.N
		switch rec.Kind {
		case text.RecInsert:
			switch {
			case rec.Pos <= q:
				return one()
			case rec.Pos >= q+m:
				rec.Pos -= m
				return one()
			default:
				// Strictly inside the deleted range: swallowed (the dual
				// case widens the delete over this insert).
				return nil
			}
		case text.RecDelete:
			newP := mapDel(rec.Pos, q, m)
			newEnd := mapDel(rec.Pos+rec.N, q, m)
			if newEnd <= newP {
				return nil // fully swallowed by the other delete
			}
			rec.Pos, rec.N = newP, newEnd-newP
			return one()
		case text.RecStyle:
			rec.Runs = shiftRunsDelete(rec.Runs, q, m)
			return one()
		}
	}
	// RecReset never travels (callers reject it before transforming).
	return one()
}

// mapDel maps position x across a delete of m runes at q.
func mapDel(x, q, m int) int {
	switch {
	case x <= q:
		return x
	case x >= q+m:
		return x - m
	default:
		return q
	}
}

// shiftRunsInsert returns a fresh run list shifted across an insert of m
// runes at q (same growth rule as Data.shiftForInsert: a run strictly
// containing q grows, one ending exactly at q does not).
func shiftRunsInsert(runs []text.Run, q, m int) []text.Run {
	out := make([]text.Run, 0, len(runs))
	for _, r := range runs {
		if r.Start >= q {
			r.Start += m
		}
		if r.End > q {
			r.End += m
		}
		out = append(out, r)
	}
	return out
}

// shiftRunsDelete returns a fresh run list clamped across a delete of m
// runes at q; runs that collapse to nothing are dropped.
func shiftRunsDelete(runs []text.Run, q, m int) []text.Run {
	out := make([]text.Run, 0, len(runs))
	for _, r := range runs {
		r.Start = mapDel(r.Start, q, m)
		r.End = mapDel(r.End, q, m)
		if r.Start < r.End {
			out = append(out, r)
		}
	}
	return out
}

// synthRecord renders a footprint as the text record that would splice the
// rune sequence the same way — the bridge that lets foreign-kind ops
// reuse the text transform rules verbatim.
func synthRecord(f Footprint) text.EditRecord {
	if f.Del > 0 {
		return text.EditRecord{Kind: text.RecDelete, Pos: f.Pos, N: f.Del}
	}
	// The text content only matters for its rune count; anchors are the
	// one rune ApplyRecord refuses, so any ASCII filler works.
	buf := make([]byte, f.Ins)
	for i := range buf {
		buf[i] = '.'
	}
	return text.EditRecord{Kind: text.RecInsert, Pos: f.Pos, Text: string(buf)}
}

// mapPosFootprint maps a state-relative position (a table's anchor, an
// embed target) across a foreign op's footprint: exactly how the document
// itself shifts embed anchors. ok=false means the position was inside a
// deleted range — whatever it addressed is gone.
func mapPosFootprint(p int, f Footprint) (int, bool) {
	if f.Ins > 0 {
		if p >= f.Pos {
			return p + f.Ins, true
		}
		return p, true
	}
	switch {
	case p < f.Pos:
		return p, true
	case p >= f.Pos+f.Del:
		return p - f.Del, true
	default:
		return 0, false
	}
}

// --- table-local transform --------------------------------------------

// axis discriminates the two structural axes of a grid.
type axis int

const (
	axRow axis = iota
	axCol
)

// structInfo decomposes a structural op into (axis, index pointer,
// is-insert); ok is false for cell-sets and resets.
func structInfo(op *table.Op) (ax axis, idx *int, isInsert bool, ok bool) {
	switch op.Kind {
	case table.OpRowInsert:
		return axRow, &op.R, true, true
	case table.OpRowDelete:
		return axRow, &op.R, false, true
	case table.OpColInsert:
		return axCol, &op.C, true, true
	case table.OpColDelete:
		return axCol, &op.C, false, true
	}
	return 0, nil, false, false
}

// xformTableOp rewrites table-local op a — valid in some grid state —
// to be valid after b applied to the same state. ok=false drops a
// entirely (LWW loss, or its target rows/cols were deleted). The rules
// are the text insert/delete rules applied to row/col indices:
//
//   - cell-set vs cell-set on the same cell: last server order wins
//     wholesale; different cells commute;
//   - a cell address shifts across structural ops per axis, and dies when
//     its row (column) is in a deleted range;
//   - same-axis structural pairs follow the text rules on indices — an
//     insert strictly inside a deleted range is swallowed by it (the
//     delete widens), overlapping deletes shrink to the remainder, and
//     equal-index inserts tie-break by server order;
//   - cross-axis structural pairs commute untouched (rows and columns
//     address disjoint coordinates).
func xformTableOp(a, b table.Op, aLater bool) (table.Op, bool) {
	// b is a cell-set: it moves no addresses; the only interaction is the
	// same-cell write conflict.
	if b.Kind == table.OpCellSet {
		if a.Kind == table.OpCellSet && a.R == b.R && a.C == b.C && !aLater {
			return a, false // superseded by the server-later write
		}
		return a, true
	}
	bAx, bIdx, bIns, ok := structInfo(&b)
	if !ok {
		return a, true // resets never travel; be inert
	}
	q, m := *bIdx, b.N

	if a.Kind == table.OpCellSet {
		ip := &a.R
		if bAx == axCol {
			ip = &a.C
		}
		if bIns {
			if *ip >= q {
				*ip += m
			}
			return a, true
		}
		switch {
		case *ip < q:
			return a, true
		case *ip >= q+m:
			*ip -= m
			return a, true
		default:
			return a, false // the cell's row/col was deleted
		}
	}

	aAx, aIdx, aIns, ok := structInfo(&a)
	if !ok {
		return a, true
	}
	if aAx != bAx {
		return a, true // cross-axis ops commute
	}
	p := *aIdx
	switch {
	case bIns && aIns:
		if p > q || (p == q && aLater) {
			*aIdx = p + m
		}
		return a, true
	case bIns && !aIns: // delete across insert
		switch {
		case q <= p:
			*aIdx = p + m
			return a, true
		case q >= p+a.N:
			return a, true
		default:
			a.N += m // insert inside the deleted range: swallowed
			return a, true
		}
	case !bIns && aIns: // insert across delete
		switch {
		case p <= q:
			return a, true
		case p >= q+m:
			*aIdx = p - m
			return a, true
		default:
			return a, false // swallowed
		}
	default: // both deletes
		np := mapDel(p, q, m)
		ne := mapDel(p+a.N, q, m)
		if ne <= np {
			return a, false // fully swallowed
		}
		*aIdx, a.N = np, ne-np
		return a, true
	}
}
