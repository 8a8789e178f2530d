package text

import (
	"unicode/utf8"

	"atk/internal/core"
)

// Undo support. Every mutating operation records its inverse in a journal;
// Undo applies inverses onto the redo stack and Redo replays them back.
// Embedded components removed by a deletion are captured in the journal
// entry so undo restores them, record and all.

// opKind discriminates journal entries.
type opKind uint8

const (
	opInsert opKind = iota // plain text was inserted
	opDelete               // text was deleted; embeds captures casualties
	opStyle                // style runs changed; prev/next snapshots
	opEmbed                // a component was embedded (anchor + record)
)

type editOp struct {
	kind   opKind
	pos    int
	text   string      // inserted or deleted content
	embeds []*Embedded // embeds inside a deleted range (absolute positions)
	prev   []Run       // full run snapshot before a style change
	next   []Run       // full run snapshot after a style change
}

// journal state lives on Data; see the field block in text.go.

// UndoDepth limits how many operations the journal retains.
const UndoDepth = 200

func (d *Data) record(op editOp) {
	if d.inUndo || d.noUndo {
		return
	}
	d.undoLog = append(d.undoLog, op)
	// Trim with headroom into a fresh slice so the backing array cannot
	// grow without bound under sustained editing.
	if len(d.undoLog) > 2*UndoDepth {
		d.undoLog = append([]editOp(nil), d.undoLog[len(d.undoLog)-UndoDepth:]...)
	}
	d.redoLog = nil
}

// WithoutUndo runs f with journaling suspended: bulk programmatic
// rewrites (a lexical restyle pass, an import) should not flood the
// user's undo history or pay its bookkeeping.
func (d *Data) WithoutUndo(f func()) {
	saved := d.noUndo
	d.noUndo = true
	f()
	d.noUndo = saved
}

// CanUndo reports whether Undo will do anything.
func (d *Data) CanUndo() bool { return len(d.undoLog) > 0 }

// CanRedo reports whether Redo will do anything.
func (d *Data) CanRedo() bool { return len(d.redoLog) > 0 }

// UndoDepthNow returns the journal length (diagnostics).
func (d *Data) UndoDepthNow() int { return len(d.undoLog) }

// Undo reverses the most recent operation. It reports whether anything was
// undone.
func (d *Data) Undo() bool {
	if len(d.undoLog) == 0 {
		return false
	}
	op := d.undoLog[len(d.undoLog)-1]
	d.undoLog = d.undoLog[:len(d.undoLog)-1]
	d.inUndo = true
	defer func() { d.inUndo = false }()
	d.applyInverse(op)
	d.redoLog = append(d.redoLog, op)
	return true
}

// Redo replays the most recently undone operation.
func (d *Data) Redo() bool {
	if len(d.redoLog) == 0 {
		return false
	}
	op := d.redoLog[len(d.redoLog)-1]
	d.redoLog = d.redoLog[:len(d.redoLog)-1]
	d.inUndo = true
	defer func() { d.inUndo = false }()
	d.applyForward(op)
	d.undoLog = append(d.undoLog, op)
	return true
}

func (d *Data) applyInverse(op editOp) {
	switch op.kind {
	case opInsert:
		_ = d.Delete(op.pos, utf8.RuneCountInString(op.text))
	case opDelete:
		d.restoreDeleted(op)
	case opStyle:
		d.runs = append([]Run(nil), op.prev...)
		d.logStyle()
		d.NotifyObservers(core.Change{Kind: "style"})
	case opEmbed:
		_ = d.Delete(op.pos, utf8.RuneCountInString(op.text))
	}
}

func (d *Data) applyForward(op editOp) {
	switch op.kind {
	case opInsert:
		_ = d.insertText(op.pos, op.text, "insert")
	case opDelete:
		_ = d.Delete(op.pos, utf8.RuneCountInString(op.text))
	case opStyle:
		d.runs = append([]Run(nil), op.next...)
		d.logStyle()
		d.NotifyObservers(core.Change{Kind: "style"})
	case opEmbed:
		d.restoreDeleted(op)
	}
}

// restoreDeleted re-inserts deleted content and resurrects the embed
// records that pointed into it.
func (d *Data) restoreDeleted(op editOp) {
	_ = d.insertText(op.pos, op.text, "insert")
	for _, e := range op.embeds {
		d.embeds = append(d.embeds, &Embedded{Pos: e.Pos, Obj: e.Obj, ViewName: e.ViewName})
	}
	sortEmbeds(d.embeds)
}
