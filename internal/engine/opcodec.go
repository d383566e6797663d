package engine

import (
	"repro/internal/wire"
)

// Binary wire codec for the shipped map operations (the request-side
// MsgMap payload). Ops are tiny value structs, so the codec is a plain
// switch; an op type absent here does not cross the wire. Tags are wire
// format: append, never renumber. Decoded ops are returned in value
// form whichever form was sent.
const (
	opTagFilter      = 1
	opTagDerive      = 2
	opTagProject     = 3
	opTagFilterRange = 4
)

// AppendOpWire appends tag+body for a shipped op; ok=false (b
// unchanged) means op has no codec and cannot cross the wire.
func AppendOpWire(b []byte, op MapOp) ([]byte, bool) {
	switch o := op.(type) {
	case *FilterOp:
		return AppendOpWire(b, *o)
	case *DeriveOp:
		return AppendOpWire(b, *o)
	case *ProjectOp:
		return AppendOpWire(b, *o)
	case *FilterRangeOp:
		return AppendOpWire(b, *o)
	case FilterOp:
		b = append(b, opTagFilter)
		return wire.AppendString(b, o.Predicate), true
	case DeriveOp:
		b = append(b, opTagDerive)
		b = wire.AppendString(b, o.Col)
		return wire.AppendString(b, o.Expr), true
	case ProjectOp:
		b = append(b, opTagProject)
		return wire.AppendStrings(b, o.Cols), true
	case FilterRangeOp:
		b = append(b, opTagFilterRange)
		b = wire.AppendString(b, o.Col)
		b = wire.AppendF64(b, o.Min)
		return wire.AppendF64(b, o.Max), true
	default:
		return b, false
	}
}

// DecodeOpWire decodes a tag+body op payload.
func DecodeOpWire(b []byte) (MapOp, []byte, error) {
	tag, rest, err := wire.ConsumeByte(b)
	if err != nil {
		return nil, b, err
	}
	switch tag {
	case opTagFilter:
		var op FilterOp
		if op.Predicate, rest, err = wire.ConsumeString(rest); err != nil {
			return nil, b, err
		}
		return op, rest, nil
	case opTagDerive:
		var op DeriveOp
		if op.Col, rest, err = wire.ConsumeString(rest); err != nil {
			return nil, b, err
		}
		if op.Expr, rest, err = wire.ConsumeString(rest); err != nil {
			return nil, b, err
		}
		return op, rest, nil
	case opTagProject:
		var op ProjectOp
		if op.Cols, rest, err = wire.ConsumeStrings(rest); err != nil {
			return nil, b, err
		}
		return op, rest, nil
	case opTagFilterRange:
		var op FilterRangeOp
		if op.Col, rest, err = wire.ConsumeString(rest); err != nil {
			return nil, b, err
		}
		if op.Min, rest, err = wire.ConsumeF64(rest); err != nil {
			return nil, b, err
		}
		if op.Max, rest, err = wire.ConsumeF64(rest); err != nil {
			return nil, b, err
		}
		return op, rest, nil
	default:
		return nil, b, wire.Corruptf("unknown op tag %d", tag)
	}
}
