package expr

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/table"
)

// builtinSpec describes one builtin function: arity bounds, result-kind
// inference, whether it sees missing arguments (default: any missing
// argument makes the result missing), and the evaluator.
type builtinSpec struct {
	minArgs, maxArgs int
	passMissing      bool
	kind             func(args []table.Kind) table.Kind
	eval             func(args []table.Value) table.Value
}

func numKind(args []table.Kind) table.Kind {
	for _, k := range args {
		if k == table.KindDouble {
			return table.KindDouble
		}
	}
	return table.KindInt
}

// branchKind types a call that returns one of its arguments as it is
// (if, coalesce, min, max): arguments of one kind give that kind,
// numeric arguments of different kinds promote as arithmetic does, and
// any other mix is KindNone, which Bind rejects. So every value such a
// call returns reads as its bound kind.
func branchKind(args []table.Kind) table.Kind {
	k := args[0]
	for _, a := range args[1:] {
		switch {
		case a == k:
		case a.Numeric() && k.Numeric():
			k = numKind([]table.Kind{k, a})
		default:
			return table.KindNone
		}
	}
	return k
}

func fixedKind(k table.Kind) func([]table.Kind) table.Kind {
	return func([]table.Kind) table.Kind { return k }
}

var builtins = map[string]builtinSpec{
	"abs": {1, 1, false, numKind, func(a []table.Value) table.Value {
		if a[0].Kind == table.KindDouble {
			return table.DoubleValue(math.Abs(a[0].D))
		}
		v := a[0].I
		if v < 0 {
			v = -v
		}
		return table.IntValue(v)
	}},
	"floor": {1, 1, false, fixedKind(table.KindInt), func(a []table.Value) table.Value {
		return table.IntValue(int64(math.Floor(a[0].Double())))
	}},
	"ceil": {1, 1, false, fixedKind(table.KindInt), func(a []table.Value) table.Value {
		return table.IntValue(int64(math.Ceil(a[0].Double())))
	}},
	"round": {1, 1, false, fixedKind(table.KindInt), func(a []table.Value) table.Value {
		return table.IntValue(int64(math.Round(a[0].Double())))
	}},
	"sqrt": {1, 1, false, fixedKind(table.KindDouble), func(a []table.Value) table.Value {
		return table.DoubleValue(math.Sqrt(a[0].Double()))
	}},
	"exp": {1, 1, false, fixedKind(table.KindDouble), func(a []table.Value) table.Value {
		return table.DoubleValue(math.Exp(a[0].Double()))
	}},
	"log": {1, 1, false, fixedKind(table.KindDouble), func(a []table.Value) table.Value {
		return table.DoubleValue(math.Log(a[0].Double()))
	}},
	"pow": {2, 2, false, fixedKind(table.KindDouble), func(a []table.Value) table.Value {
		return table.DoubleValue(math.Pow(a[0].Double(), a[1].Double()))
	}},
	"min": {2, 2, false, branchKind, func(a []table.Value) table.Value {
		if a[0].Compare(a[1]) <= 0 {
			return a[0]
		}
		return a[1]
	}},
	"max": {2, 2, false, branchKind, func(a []table.Value) table.Value {
		if a[0].Compare(a[1]) >= 0 {
			return a[0]
		}
		return a[1]
	}},
	"len": {1, 1, false, fixedKind(table.KindInt), func(a []table.Value) table.Value {
		return table.IntValue(int64(len(a[0].S)))
	}},
	"lower": {1, 1, false, fixedKind(table.KindString), func(a []table.Value) table.Value {
		return table.StringValue(strings.ToLower(a[0].String()))
	}},
	"upper": {1, 1, false, fixedKind(table.KindString), func(a []table.Value) table.Value {
		return table.StringValue(strings.ToUpper(a[0].String()))
	}},
	"trim": {1, 1, false, fixedKind(table.KindString), func(a []table.Value) table.Value {
		return table.StringValue(strings.TrimSpace(a[0].String()))
	}},
	"substr": {3, 3, false, fixedKind(table.KindString), func(a []table.Value) table.Value {
		s := a[0].String()
		start, n := int(a[1].I), int(a[2].I)
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := start + n
		if n < 0 || end > len(s) {
			end = len(s)
		}
		return table.StringValue(s[start:end])
	}},
	"concat": {2, 8, false, fixedKind(table.KindString), func(a []table.Value) table.Value {
		var sb strings.Builder
		for _, v := range a {
			sb.WriteString(v.String())
		}
		return table.StringValue(sb.String())
	}},
	"contains": {2, 2, false, fixedKind(table.KindInt), func(a []table.Value) table.Value {
		return boolValue(strings.Contains(a[0].String(), a[1].String()))
	}},
	"startsWith": {2, 2, false, fixedKind(table.KindInt), func(a []table.Value) table.Value {
		return boolValue(strings.HasPrefix(a[0].String(), a[1].String()))
	}},
	"endsWith": {2, 2, false, fixedKind(table.KindInt), func(a []table.Value) table.Value {
		return boolValue(strings.HasSuffix(a[0].String(), a[1].String()))
	}},
	"year":    dateField(func(t time.Time) int64 { return int64(t.Year()) }),
	"month":   dateField(func(t time.Time) int64 { return int64(t.Month()) }),
	"day":     dateField(func(t time.Time) int64 { return int64(t.Day()) }),
	"hour":    dateField(func(t time.Time) int64 { return int64(t.Hour()) }),
	"minute":  dateField(func(t time.Time) int64 { return int64(t.Minute()) }),
	"weekday": dateField(func(t time.Time) int64 { return int64(t.Weekday()) }),
	"toInt": {1, 1, false, fixedKind(table.KindInt), func(a []table.Value) table.Value {
		switch a[0].Kind {
		case table.KindString:
			i, err := strconv.ParseInt(strings.TrimSpace(a[0].S), 10, 64)
			if err != nil {
				return table.MissingValue(table.KindInt)
			}
			return table.IntValue(i)
		default:
			return table.IntValue(int64(a[0].Double()))
		}
	}},
	"toDouble": {1, 1, false, fixedKind(table.KindDouble), func(a []table.Value) table.Value {
		switch a[0].Kind {
		case table.KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(a[0].S), 64)
			if err != nil {
				return table.MissingValue(table.KindDouble)
			}
			return table.DoubleValue(f)
		default:
			return table.DoubleValue(a[0].Double())
		}
	}},
	"toString": {1, 1, false, fixedKind(table.KindString), func(a []table.Value) table.Value {
		return table.StringValue(a[0].String())
	}},
	"toDate": {1, 1, false, fixedKind(table.KindDate), func(a []table.Value) table.Value {
		return table.Value{Kind: table.KindDate, I: int64(a[0].Double())}
	}},
	"isMissing": {1, 1, true, fixedKind(table.KindInt), func(a []table.Value) table.Value {
		return boolValue(a[0].Missing)
	}},
	"coalesce": {2, 8, true, branchKind, func(a []table.Value) table.Value {
		for _, v := range a {
			if !v.Missing {
				return v
			}
		}
		return a[len(a)-1]
	}},
	"if": {3, 3, true, func(args []table.Kind) table.Kind { return branchKind(args[1:]) }, func(a []table.Value) table.Value {
		if truthy(a[0]) {
			return a[1]
		}
		return a[2]
	}},
}

func dateField(f func(time.Time) int64) builtinSpec {
	return builtinSpec{1, 1, false, fixedKind(table.KindInt), func(a []table.Value) table.Value {
		return table.IntValue(f(time.UnixMilli(int64(a[0].Double())).UTC()))
	}}
}

func checkArity(name string, n int) error {
	b := builtins[name]
	if n < b.minArgs || n > b.maxArgs {
		return fmt.Errorf("expr: %s takes %d..%d arguments, got %d", name, b.minArgs, b.maxArgs, n)
	}
	return nil
}

func boolValue(b bool) table.Value {
	if b {
		return table.IntValue(1)
	}
	return table.IntValue(0)
}

// truthy reports whether a value counts as true: non-zero numbers and
// non-empty strings. Missing values are not truthy.
func truthy(v table.Value) bool {
	if v.Missing {
		return false
	}
	switch v.Kind {
	case table.KindString:
		return v.S != ""
	default:
		return v.Double() != 0
	}
}
