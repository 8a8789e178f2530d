package core

import (
	"errors"
	"fmt"
	"io"

	"atk/internal/class"
	"atk/internal/datastream"
)

// This file connects the external representation to the class system:
// objects are written under begin/end markers by type name, and read back
// by instantiating that type name through a class registry — which
// demand-loads the providing code unit if the type is not yet resident
// (paper §7's extension story). A type no registry can supply is preserved
// verbatim as an UnknownData so documents survive editors that lack some
// component.

// Errors from object-level stream I/O.
var (
	ErrNotDataObject = errors.New("core: class did not instantiate a DataObject")
	ErrBadStream     = errors.New("core: malformed object stream")
)

// An Encodable is what WriteObject writes: a type name and the payload
// under it. Every DataObject is one, and so is a copy of one taken to be
// encoded elsewhere (text.Capture).
type Encodable interface {
	TypeName() string
	WritePayload(w *datastream.Writer) error
}

// WriteObject writes obj enclosed in its begin/end markers and returns the
// stream ID assigned, which the caller may reference in \view constructs.
func WriteObject(w *datastream.Writer, obj Encodable) (int, error) {
	id, err := w.Begin(obj.TypeName())
	if err != nil {
		return 0, err
	}
	if err := obj.WritePayload(w); err != nil {
		return 0, err
	}
	return id, w.End()
}

// ReadObject reads the next object from r: it expects a begin token,
// instantiates the type through reg (triggering a demand load if needed),
// and delegates payload restoration to the object. When the registry
// cannot supply the type at all, the object's raw stream is captured into
// an UnknownData, so nothing is lost.
func ReadObject(r *datastream.Reader, reg *class.Registry) (DataObject, error) {
	tok, err := r.Next()
	if err != nil {
		return nil, err
	}
	if tok.Kind != datastream.TokBegin {
		return nil, fmt.Errorf("%w: expected begindata, got %v", ErrBadStream, tok.Kind)
	}
	return ReadObjectAfterBegin(r, reg, tok)
}

// ReadObjectAfterBegin is ReadObject for callers that already consumed the
// begin token (e.g. a text component that met an embedded child while
// scanning its own payload).
func ReadObjectAfterBegin(r *datastream.Reader, reg *class.Registry, begin datastream.Token) (DataObject, error) {
	inst, err := reg.NewObject(begin.Type)
	if errors.Is(err, class.ErrUnknownClass) {
		u := NewUnknownData(begin.Type)
		if err := u.capture(r, begin); err != nil {
			return nil, err
		}
		return u, nil
	}
	if err != nil {
		return nil, err
	}
	obj, ok := inst.(DataObject)
	if !ok {
		return nil, fmt.Errorf("%w: %q produced %T", ErrNotDataObject, begin.Type, inst)
	}
	depth := r.Depth() // includes this object's own frame
	if err := obj.ReadPayload(r); err != nil {
		if r.Lenient() {
			// The component could not make sense of its payload. Skip to
			// the object's end marker (the lenient reader synthesizes one
			// at EOF if need be) and stand in a placeholder, so the rest
			// of the document is still salvaged.
			if serr := skipToClose(r, depth); serr == nil {
				r.AddDiagnostic(r.Line(), "component %s,%d dropped: %v", begin.Type, begin.ID, err)
				// Stand in a pristine instance of the same class: unlike an
				// empty UnknownData under a registered type name, a default
				// instance serializes to a valid payload of its type, so a
				// salvaged document still write→read→writes stably.
				if fresh, ferr := reg.NewObject(begin.Type); ferr == nil {
					if p, ok := fresh.(DataObject); ok {
						return p, nil
					}
				}
				return NewUnknownData(begin.Type), nil
			}
		}
		return nil, fmt.Errorf("reading %s: %w", begin.Type, err)
	}
	return obj, nil
}

// skipToClose consumes tokens until the object whose frame sits at depth
// has been closed. If the failing parser already consumed the end marker,
// the reader is below depth and nothing is consumed.
func skipToClose(r *datastream.Reader, depth int) error {
	for r.Depth() >= depth {
		if _, err := r.Next(); err != nil {
			return err
		}
	}
	return nil
}

// NewViewFor instantiates the named view class through reg and attaches
// obj. An empty viewName uses the object's default view.
func NewViewFor(reg *class.Registry, viewName string, obj DataObject) (View, error) {
	if viewName == "" {
		viewName = obj.DefaultViewName()
	}
	inst, err := reg.NewObject(viewName)
	if err != nil {
		return nil, err
	}
	v, ok := inst.(View)
	if !ok {
		return nil, fmt.Errorf("core: view class %q produced %T", viewName, inst)
	}
	if obj != nil {
		v.SetDataObject(obj)
	}
	return v, nil
}

// UnknownData preserves the external representation of a component type
// this program has no code for. It replays the captured stream verbatim on
// write, so a document edited by a lesser application round-trips intact.
type UnknownData struct {
	BaseData
	origType string
	events   []capturedEvent
}

type capturedEvent struct {
	tok datastream.Token
}

// NewUnknownData returns an empty placeholder for the given type name.
func NewUnknownData(typeName string) *UnknownData {
	u := &UnknownData{origType: typeName}
	u.InitData(u, typeName, "unknownview")
	return u
}

// capture records tokens up to and including the matching end of begin.
func (u *UnknownData) capture(r *datastream.Reader, begin datastream.Token) error {
	depth := 1
	for depth > 0 {
		tok, err := r.Next()
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("%w: EOF inside %s", ErrBadStream, u.origType)
			}
			return err
		}
		switch tok.Kind {
		case datastream.TokBegin:
			depth++
		case datastream.TokEnd:
			depth--
			if depth == 0 {
				return nil
			}
		}
		u.events = append(u.events, capturedEvent{tok})
	}
	return nil
}

// WritePayload replays the captured stream.
func (u *UnknownData) WritePayload(w *datastream.Writer) error {
	for _, e := range u.events {
		var err error
		switch e.tok.Kind {
		case datastream.TokBegin:
			err = w.BeginID(e.tok.Type, e.tok.ID)
		case datastream.TokEnd:
			err = w.End()
		case datastream.TokView:
			err = w.View(e.tok.Type, e.tok.ID)
		case datastream.TokText:
			err = w.WriteText(e.tok.Text)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadPayload implements DataObject; an UnknownData re-read captures
// again.
func (u *UnknownData) ReadPayload(r *datastream.Reader) error {
	u.events = nil
	return u.capture(r, datastream.Token{Kind: datastream.TokBegin, Type: u.origType})
}

// Captured returns the number of captured stream events.
func (u *UnknownData) Captured() int { return len(u.events) }
