package table

import (
	"fmt"
	"strconv"
	"strings"

	"atk/internal/core"
)

// Replicable table operations. A table edit is far simpler to transform
// than a text edit: a cell address is a (row, col) pair, structural ops
// (row/col insert and delete) shift addresses by index arithmetic on one
// axis, and two concurrent writes to the same cell resolve wholesale
// last-writer-wins by server order. The internal/ops registry wraps these
// in a document-level op (tagging which embedded table they address); this
// file owns the table-local model: the op type, its wire codec, the
// structural mutators, and ApplyOp — which applies a peer's committed op
// through the same notify path local edits use, so chart and tableview
// observers repaint remote cell changes exactly like local ones.

// OpKind discriminates table operations.
type OpKind int

// Table operation kinds.
const (
	// OpCellSet replaces one cell's content (empty/text/number/formula).
	OpCellSet OpKind = iota
	// OpRowInsert inserts N empty rows at row R.
	OpRowInsert
	// OpRowDelete deletes rows [R, R+N).
	OpRowDelete
	// OpColInsert inserts N empty columns at column C.
	OpColInsert
	// OpColDelete deletes columns [C, C+N).
	OpColDelete
	// OpReset marks a table mutation the op model cannot express (embedding
	// a live component in a cell). It never travels on the wire; loggers
	// receive it so the replication layer can surface the fallback.
	OpReset
)

// CellSpec is the serializable content of one cell: everything but a live
// embedded component (those reset, like text embeds do).
type CellSpec struct {
	Kind  CellKind // Empty, Text, Number, or Formula
	Str   string   // Text content or Formula source
	Value float64  // Number value
}

// Op is one replicable table mutation.
type Op struct {
	Kind OpKind
	R, C int      // cell address (OpCellSet); start index for row/col ops
	N    int      // row/col count for structural ops
	Cell CellSpec // OpCellSet payload
	// Reason describes an OpReset.
	Reason string
}

// SetOpLogger installs fn to receive every local mutation as an Op
// (ApplyOp replays are suppressed, mirroring text.SetEditLogger).
func (d *Data) SetOpLogger(fn func(Op)) { d.opLog = fn }

func (d *Data) logOp(op Op) {
	if d.opLog != nil && !d.applying {
		d.opLog(op)
	}
}

// specOf captures a cell's replicable content; ok is false for cells the
// op model cannot express (embedded components).
func specOf(cell Cell) (CellSpec, bool) {
	switch cell.Kind {
	case Empty, Text, Number, Formula:
		return CellSpec{Kind: cell.Kind, Str: cell.Str, Value: cell.Value}, true
	default:
		return CellSpec{}, false
	}
}

// cellOf builds the concrete cell for a spec, compiling formulas.
func cellOf(spec CellSpec) (Cell, error) {
	switch spec.Kind {
	case Empty:
		return Cell{}, nil
	case Text:
		return Cell{Kind: Text, Str: spec.Str}, nil
	case Number:
		return Cell{Kind: Number, Value: spec.Value}, nil
	case Formula:
		if !strings.HasPrefix(spec.Str, "=") {
			return Cell{}, fmt.Errorf("%w: formula %q must start with '='", ErrFormula, spec.Str)
		}
		expr, err := parseFormula(spec.Str[1:])
		if err != nil {
			return Cell{}, err
		}
		return Cell{Kind: Formula, Str: spec.Str, expr: expr}, nil
	default:
		return Cell{}, fmt.Errorf("table: cell spec kind %d not applicable", spec.Kind)
	}
}

// ApplyOp applies a committed operation from a peer: the same mutation a
// local edit performs, with the op logger suppressed (the op is already in
// the replication stream) but observers notified as usual — that is what
// repaints every replica's chart and table views on a remote edit.
func (d *Data) ApplyOp(op Op) error {
	prev := d.applying
	d.applying = true
	defer func() { d.applying = prev }()
	switch op.Kind {
	case OpCellSet:
		cell, err := cellOf(op.Cell)
		if err != nil {
			return err
		}
		return d.setCell(op.R, op.C, cell)
	case OpRowInsert:
		return d.InsertRows(op.R, op.N)
	case OpRowDelete:
		return d.DeleteRows(op.R, op.N)
	case OpColInsert:
		return d.InsertCols(op.C, op.N)
	case OpColDelete:
		return d.DeleteCols(op.C, op.N)
	default:
		return fmt.Errorf("table: op kind %d not applicable", op.Kind)
	}
}

// --- structural mutators ---------------------------------------------

// InsertRows inserts n empty rows at row r (0 <= r <= rows). Formula
// references are deliberately not rewritten: a reference is positional,
// and rewriting it per-replica would need the very op context the
// transform layer already owns. Determinism is what convergence needs.
func (d *Data) InsertRows(r, n int) error {
	if r < 0 || r > d.rows || n < 0 {
		return fmt.Errorf("%w: insert %d rows at %d of %d", ErrBounds, n, r, d.rows)
	}
	if n == 0 {
		return nil
	}
	nc := make([]Cell, (d.rows+n)*d.cols)
	copy(nc, d.cells[:r*d.cols])
	copy(nc[(r+n)*d.cols:], d.cells[r*d.cols:])
	d.rows += n
	d.cells = nc
	d.structChanged(Op{Kind: OpRowInsert, R: r, N: n})
	return nil
}

// DeleteRows deletes rows [r, r+n). Concurrent deletes may legitimately
// empty the grid (each alone leaves rows; transformed they compose), so
// no minimum is enforced here — New and Resize keep the 1x1 floor for
// interactive use.
func (d *Data) DeleteRows(r, n int) error {
	if r < 0 || n < 0 || r+n > d.rows {
		return fmt.Errorf("%w: delete rows [%d,%d) of %d", ErrBounds, r, r+n, d.rows)
	}
	if n == 0 {
		return nil
	}
	nc := make([]Cell, (d.rows-n)*d.cols)
	copy(nc, d.cells[:r*d.cols])
	copy(nc[r*d.cols:], d.cells[(r+n)*d.cols:])
	d.rows -= n
	d.cells = nc
	d.structChanged(Op{Kind: OpRowDelete, R: r, N: n})
	return nil
}

// InsertCols inserts n default-width columns at column c (0 <= c <= cols).
func (d *Data) InsertCols(c, n int) error {
	if c < 0 || c > d.cols || n < 0 {
		return fmt.Errorf("%w: insert %d cols at %d of %d", ErrBounds, n, c, d.cols)
	}
	if n == 0 {
		return nil
	}
	cols := d.cols + n
	nc := make([]Cell, d.rows*cols)
	for r := 0; r < d.rows; r++ {
		copy(nc[r*cols:], d.cells[r*d.cols:r*d.cols+c])
		copy(nc[r*cols+c+n:], d.cells[r*d.cols+c:(r+1)*d.cols])
	}
	nw := make([]int, cols)
	copy(nw, d.colW[:c])
	copy(nw[c+n:], d.colW[c:])
	d.cols, d.cells, d.colW = cols, nc, nw
	d.structChanged(Op{Kind: OpColInsert, C: c, N: n})
	return nil
}

// DeleteCols deletes columns [c, c+n).
func (d *Data) DeleteCols(c, n int) error {
	if c < 0 || n < 0 || c+n > d.cols {
		return fmt.Errorf("%w: delete cols [%d,%d) of %d", ErrBounds, c, c+n, d.cols)
	}
	if n == 0 {
		return nil
	}
	cols := d.cols - n
	nc := make([]Cell, d.rows*cols)
	for r := 0; r < d.rows; r++ {
		copy(nc[r*cols:], d.cells[r*d.cols:r*d.cols+c])
		copy(nc[r*cols+c:], d.cells[r*d.cols+c+n:(r+1)*d.cols])
	}
	nw := make([]int, cols)
	copy(nw, d.colW[:c])
	copy(nw[c:], d.colW[c+n:])
	d.cols, d.cells, d.colW = cols, nc, nw
	d.structChanged(Op{Kind: OpColDelete, C: c, N: n})
	return nil
}

// structChanged finishes a structural mutation: recalc (references may now
// resolve differently), log, notify.
func (d *Data) structChanged(op Op) {
	d.recalc()
	d.logOp(op)
	d.NotifyObservers(core.Change{Kind: "dims"})
}

// --- wire codec -------------------------------------------------------
//
// One op is one space-separated payload:
//
//	c <r> <c> e                  clear cell
//	c <r> <c> n <number>         number cell
//	c <r> <c> t <quoted>         text cell (Go ASCII quoting)
//	c <r> <c> f <quoted>         formula cell
//	ri <r> <n>                   insert rows
//	rd <r> <n>                   delete rows
//	ci <c> <n>                   insert cols
//	cd <c> <n>                   delete cols

// AppendOp appends op's wire form to dst.
func AppendOp(dst []byte, op Op) []byte {
	switch op.Kind {
	case OpCellSet:
		dst = append(dst, 'c', ' ')
		dst = strconv.AppendInt(dst, int64(op.R), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(op.C), 10)
		switch op.Cell.Kind {
		case Text:
			dst = append(dst, " t "...)
			dst = append(dst, strconv.QuoteToASCII(op.Cell.Str)...)
		case Number:
			dst = append(dst, " n "...)
			dst = strconv.AppendFloat(dst, op.Cell.Value, 'g', -1, 64)
		case Formula:
			dst = append(dst, " f "...)
			dst = append(dst, strconv.QuoteToASCII(op.Cell.Str)...)
		default:
			dst = append(dst, " e"...)
		}
		return dst
	case OpRowInsert, OpRowDelete, OpColInsert, OpColDelete:
		verb, idx := structVerb(op)
		dst = append(dst, verb...)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(idx), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(op.N), 10)
		return dst
	default:
		// OpReset never travels; encoding it is a caller bug surfaced as an
		// unparseable payload rather than silent data loss.
		return append(dst, "?reset"...)
	}
}

func structVerb(op Op) (string, int) {
	switch op.Kind {
	case OpRowInsert:
		return "ri", op.R
	case OpRowDelete:
		return "rd", op.R
	case OpColInsert:
		return "ci", op.C
	default:
		return "cd", op.C
	}
}

// DecodeOp parses one wire payload back into an Op.
func DecodeOp(s string) (Op, error) {
	verb, rest, _ := strings.Cut(s, " ")
	switch verb {
	case "c":
		return decodeCellSet(rest)
	case "ri", "rd", "ci", "cd":
		f := strings.Fields(rest)
		if len(f) != 2 {
			return Op{}, fmt.Errorf("table: bad %s op %q", verb, s)
		}
		idx, err1 := strconv.Atoi(f[0])
		n, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil || idx < 0 || n < 1 {
			return Op{}, fmt.Errorf("table: bad %s op %q", verb, s)
		}
		op := Op{N: n}
		switch verb {
		case "ri":
			op.Kind, op.R = OpRowInsert, idx
		case "rd":
			op.Kind, op.R = OpRowDelete, idx
		case "ci":
			op.Kind, op.C = OpColInsert, idx
		case "cd":
			op.Kind, op.C = OpColDelete, idx
		}
		return op, nil
	default:
		return Op{}, fmt.Errorf("table: unknown op verb %q", verb)
	}
}

func decodeCellSet(rest string) (Op, error) {
	f := strings.SplitN(rest, " ", 4)
	if len(f) < 3 {
		return Op{}, fmt.Errorf("table: bad cell op %q", rest)
	}
	r, err1 := strconv.Atoi(f[0])
	c, err2 := strconv.Atoi(f[1])
	if err1 != nil || err2 != nil || r < 0 || c < 0 {
		return Op{}, fmt.Errorf("table: bad cell address in op %q", rest)
	}
	op := Op{Kind: OpCellSet, R: r, C: c}
	switch f[2] {
	case "e":
		if len(f) != 3 {
			return Op{}, fmt.Errorf("table: trailing bytes after empty cell op %q", rest)
		}
		return op, nil
	case "n":
		if len(f) != 4 {
			return Op{}, fmt.Errorf("table: bad number cell op %q", rest)
		}
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return Op{}, fmt.Errorf("table: bad number in op %q", rest)
		}
		op.Cell = CellSpec{Kind: Number, Value: v}
		return op, nil
	case "t", "f":
		if len(f) != 4 {
			return Op{}, fmt.Errorf("table: bad quoted cell op %q", rest)
		}
		str, err := strconv.Unquote(f[3])
		if err != nil {
			return Op{}, fmt.Errorf("table: bad quoted string in op %q", rest)
		}
		kind := Text
		if f[2] == "f" {
			kind = Formula
		}
		op.Cell = CellSpec{Kind: kind, Str: str}
		return op, nil
	default:
		return Op{}, fmt.Errorf("table: unknown cell kind %q in op %q", f[2], rest)
	}
}
