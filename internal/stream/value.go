// Package stream defines the data model of the Aurora stream processor:
// typed values, schemas, tuples, and the queues that carry tuples between
// operators. A data stream is a potentially unbounded sequence of tuples
// generated in real time by a data source (paper §2.1).
package stream

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the primitive types a stream field may carry.
type Kind uint8

const (
	// KindInvalid is the zero Kind; values of this kind are nulls.
	KindInvalid Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is an immutable byte string.
	KindString
	// KindBool is a boolean.
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Value is a compact tagged union holding one field of a tuple. The zero
// Value is a null. Values are immutable once placed in a tuple.
type Value struct {
	kind Kind
	i    int64 // int, bool (0/1)
	f    float64
	s    string
}

// Int returns a Value of KindInt.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a Value of KindFloat.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String returns a Value of KindString.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a Value of KindBool.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Null returns the null Value.
func Null() Value { return Value{} }

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindInvalid }

// AsInt returns the integer payload. It is valid only for KindInt and
// KindBool values; other kinds return 0.
func (v Value) AsInt() int64 {
	if v.kind == KindInt || v.kind == KindBool {
		return v.i
	}
	return 0
}

// AsFloat returns the value coerced to float64. Ints coerce losslessly for
// magnitudes below 2^53; strings and nulls return 0.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt, KindBool:
		return float64(v.i)
	default:
		return 0
	}
}

// AsString returns the string payload, or "" for non-string kinds.
func (v Value) AsString() string {
	if v.kind == KindString {
		return v.s
	}
	return ""
}

// AsBool returns the boolean payload; non-bool kinds report false except
// non-zero ints, which report true.
func (v Value) AsBool() bool {
	switch v.kind {
	case KindBool, KindInt:
		return v.i != 0
	default:
		return false
	}
}

// Equal reports deep equality of two values, including kind.
func (v Value) Equal(o Value) bool { return v == o }

// Less reports whether v orders before o, per Compare.
func (v Value) Less(o Value) bool { return v.Compare(o) < 0 }

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat }

// Compare returns -1, 0, or +1 as v orders before, with, or after o.
// Values of different kinds order by kind; nulls order first. Two ints
// compare exactly, as int64s: their float64 images tie above 2^53, which
// unix-nanosecond timestamps exceed. Cross-numeric comparison (int vs
// float) uses float semantics so that sort attributes may mix the two; a
// NaN orders with everything.
func (v Value) Compare(o Value) int {
	if v.kind == KindInt && o.kind == KindInt {
		return cmp.Compare(v.i, o.i)
	}
	if isNumeric(v.kind) && isNumeric(o.kind) {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.kind != o.kind {
		return cmp.Compare(v.kind, o.kind)
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.s, o.s)
	case KindBool:
		return cmp.Compare(v.i, o.i)
	default:
		return 0
	}
}

// GoString formats the value for debugging.
func (v Value) GoString() string { return v.Format() }

// Format renders the value as a short literal, e.g. 42, 2.5, "x", true.
func (v Value) Format() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindBool:
		return strconv.FormatBool(v.i != 0)
	default:
		return "null"
	}
}

// valueHeader is the fixed per-Value footprint (kind + padding + union
// slots, not counting string data); Tuple.MemSize charges it for unused
// capacity slots too.
const valueHeader = 16

// MemSize returns the approximate in-memory footprint of the value in
// bytes, used by the storage manager's buffer accounting.
func (v Value) MemSize() int {
	return valueHeader + len(v.s)
}

// ParseValue converts a literal of the given kind from its string form.
// It is used by the streamgen CLI and the CSV codecs.
func ParseValue(k Kind, s string) (Value, error) {
	switch k {
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse int %q: %w", s, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse float %q: %w", s, err)
		}
		return Float(f), nil
	case KindString:
		return String(s), nil
	case KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Value{}, fmt.Errorf("parse bool %q: %w", s, err)
		}
		return Bool(b), nil
	default:
		return Value{}, fmt.Errorf("cannot parse value of kind %v", k)
	}
}
