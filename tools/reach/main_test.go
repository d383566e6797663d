package main

import (
	"go/token"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// dumpdepGolden is linker -dumpdep output in the shape go1.24 prints:
// attribute flags, generic instances, closures, aux data symbols and
// symbols from outside the module's internal/ tree.
const dumpdepGolden = `# m/cmd/x
_ -> go:main.inittasks
main.main -> m/internal/sk.NewLive
m/internal/sk.NewLive -> type:*m/internal/sk.Live <UsedInIface>
type:*m/internal/sk.Live <UsedInIface> -> m/internal/sk.(*Live).Summarize
m/internal/sk..inittask -> m/internal/sk.init.0
m/internal/sk.init.0 -> m/internal/sk.init.0.func1·f
type:*m/internal/sk.Dead <UsedInIface> -> m/internal/sk.(*Dead).Summarize
type:*m/internal/sk.Dead <UsedInIface> -> m/internal/sk.(*Dead).Zero
type:*m/internal/sk.DeadResult <UsedInIface> -> m/internal/sk.(*DeadResult).Size
main.main -> m/internal/sk.Max[go.shape.int]
main.main -> m/internal/sk.(*heap[go.shape.struct { X int }]).Push
m/internal/sk.Max[go.shape.int] -> m/internal/sk.Max[go.shape.int].func1
runtime.throw -> m/internal/sk.Unreached.stkobj
main.main -> fmt.Println
`

func TestParseDumpdep(t *testing.T) {
	set := map[string]bool{}
	parseDumpdep(strings.NewReader(dumpdepGolden), "m/internal/", set)
	var got []string
	for s := range set {
		got = append(got, s)
	}
	sort.Strings(got)
	want := []string{
		"sk.(*Dead).Summarize", "sk.(*Dead).Zero", "sk.(*DeadResult).Size",
		"sk.(*Live).Summarize", "sk.(*heap).Push", "sk..inittask",
		"sk.Max", "sk.Max.func1", "sk.NewLive", "sk.Unreached.stkobj",
		"sk.init.0", "sk.init.0.func1·f",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed\n%q\nwant\n%q", got, want)
	}
}

// regSource registers Live, Dead and DeadResult in an init and a table;
// only Live has a constructor outside them, and outside the registries
// only Dead builds a DeadResult.
const regSource = `package sk

var table = []any{&Live{}, &Dead{}}

func init() {
	register(func() any { return &Dead{} })
	register(func() any { return &DeadResult{} })
}

func register(func() any) {}

type Live struct{}
type Dead struct{}
type DeadResult struct{}
type heap[T any] []T

func NewLive() *Live { return &Live{} }
func (*Live) Summarize() {}
func (*Dead) Summarize() {}
func (*Dead) Zero() any { return new(DeadResult) }
func (*DeadResult) Size() int { return 0 }
func (h *heap[T]) Push(x T) { *h = append(*h, x) }
func Max[T int | float64](a, b T) T { return a }
func Unreached() {}
`

func TestRegistryRule(t *testing.T) {
	src := &source{registered: map[string]struct{}{}}
	if err := src.addFile(token.NewFileSet(), "m/internal/", "sk", "internal/sk/sk.go", []byte(regSource)); err != nil {
		t.Fatal(err)
	}
	var registered []string
	for k := range src.registered {
		registered = append(registered, k)
	}
	sort.Strings(registered)
	if want := []string{"sk.Dead", "sk.DeadResult", "sk.Live"}; !reflect.DeepEqual(registered, want) {
		t.Fatalf("registered %q, want %q", registered, want)
	}

	set := map[string]bool{}
	parseDumpdep(strings.NewReader(dumpdepGolden), "m/internal/", set)
	level, demoted := classify(src, [2]map[string]bool{set, set})
	if want := []string{"sk.Dead", "sk.DeadResult"}; !reflect.DeepEqual(demoted[0], want) {
		t.Errorf("demoted %q, want %q", demoted[0], want)
	}
	got := map[string]int{}
	for f, l := range level {
		got[f.name] = l
	}
	want := map[string]int{
		"sk.init":               fromNothing, // only its .0 form is a symbol; init is not reported
		"sk.register":           fromNothing,
		"sk.NewLive":            fromBinary,
		"sk.(*Live).Summarize":  fromBinary,
		"sk.(*Dead).Summarize":  fromNothing, // demoted: only registries build a Dead
		"sk.(*Dead).Zero":       fromNothing,
		"sk.(*DeadResult).Size": fromNothing, // demoted: only Dead.Zero builds one
		"sk.(*heap).Push":       fromBinary,
		"sk.Max":                fromBinary,
		"sk.Unreached":          fromNothing, // an aux data symbol is not the function
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("levels\n%v\nwant\n%v", got, want)
	}
}

func TestScaffoldPatterns(t *testing.T) {
	for _, c := range []struct {
		f    fn
		want bool
	}{
		{fn{name: "testkit.Instances", file: "internal/testkit/instances.go"}, true},
		{fn{name: "table.GenPartitions", file: "internal/table/gen.go"}, true},
		{fn{name: "cluster.(*faultConn).Read", file: "internal/cluster/transport.go"}, true},
		{fn{name: "cluster.(*Worker).SetConnWrapper", file: "internal/cluster/server.go"}, true},
		{fn{name: "cluster.(*Worker).Listen", file: "internal/cluster/server.go"}, false},
		{fn{name: "table.NewBuilder", file: "internal/table/builder.go"}, false},
	} {
		if got := isScaffold(&c.f); got != c.want {
			t.Errorf("isScaffold(%s) = %v, want %v", c.f.name, got, c.want)
		}
	}
}
