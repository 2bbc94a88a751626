package faults

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseSpecEmpty(t *testing.T) {
	for _, in := range []string{"", "   ", ","} {
		s, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		if s.Active() {
			t.Errorf("ParseSpec(%q) is active", in)
		}
		if s.Seed != 1 {
			t.Errorf("ParseSpec(%q) seed = %d, want 1", in, s.Seed)
		}
		if NewInjector(s) != nil {
			t.Errorf("NewInjector on inactive spec %q is non-nil", in)
		}
	}
}

// TestParseSpecRoundTrip: Spec.String() renders a spec the parser reads
// back identically, so logged specs are replayable verbatim.
func TestParseSpecRoundTrip(t *testing.T) {
	specs := []string{
		"seed=1,get.err=1,put.err=1",
		"seed=7,get.err=0.01,put.enospc=0.05",
		"seed=-3,get.delay=5ms@0.1,put.corrupt=1/100",
		"seed=1,get.delay=2ms,put.delay=1ms@1/3",
		"seed=42,get.corrupt=1/2,put.err=1/7",
	}
	for _, in := range specs {
		s, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		if got := s.String(); got != in {
			t.Errorf("round trip %q -> %q", in, got)
		}
		again, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", s.String(), err)
		}
		if again != s {
			t.Errorf("reparse of %q differs: %+v vs %+v", in, again, s)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"get.err", "want key=value"},
		{"seed=x", "not an integer"},
		{"bogus=1", "want op.kind=value"},
		{"fly.err=1", `unknown op "fly"`},
		{"get.explode=1", `unknown kind "explode"`},
		{"get.enospc=1", "put only"},
		{"get.err=2", "[0,1]"},
		{"get.err=-0.5", "[0,1]"},
		{"get.err=NaN", "[0,1]"},
		{"get.err=1/0", "1/N with N >= 1"},
		{"get.delay=0.5", "positive duration"},
		{"get.delay=-5ms", "positive duration"},
		{"get.delay=5ms@2", "[0,1]"},
		{"get.err=1,get.err=1", "duplicate"},
		{"seed=1,seed=2", "duplicate"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.in)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseSpec(%q) = %v, want error containing %q", c.in, err, c.wantSub)
		}
	}
}

// TestInjectorDeterministic: two injectors with the same spec agree on
// every decision in sequence — the property chaos replay rests on.
func TestInjectorDeterministic(t *testing.T) {
	spec, err := ParseSpec("seed=99,get.err=0.3,put.err=1/3,put.corrupt=0.5")
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewInjector(spec), NewInjector(spec)
	for i := 0; i < 2000; i++ {
		for op := Op(0); op < numOps; op++ {
			for kind := Kind(0); kind < numKinds; kind++ {
				key := "k" + strconv.Itoa(i%37)
				hitA, bitsA := a.decide(op, kind, key)
				hitB, bitsB := b.decide(op, kind, key)
				if hitA != hitB || bitsA != bitsB {
					t.Fatalf("op %d: %s.%s decision diverged: (%v,%d) vs (%v,%d)",
						i, op, kind, hitA, bitsA, hitB, bitsB)
				}
			}
		}
	}
	if a.InjectedTotal() == 0 {
		t.Fatal("no faults injected over 2000 ops at these rates")
	}
	if a.InjectedTotal() != b.InjectedTotal() {
		t.Fatalf("totals diverged: %d vs %d", a.InjectedTotal(), b.InjectedTotal())
	}
}

func TestInjectorSeedChangesSequence(t *testing.T) {
	mk := func(seed string) []bool {
		spec, err := ParseSpec("seed=" + seed + ",get.err=0.5")
		if err != nil {
			t.Fatal(err)
		}
		in := NewInjector(spec)
		seq := make([]bool, 256)
		for i := range seq {
			seq[i], _ = in.decide(OpGet, KindErr, "k"+strconv.Itoa(i))
		}
		return seq
	}
	a, c := mk("1"), mk("2")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 256-op sequences")
	}
}

// TestInjectorEverySchedule: 1/N fires on exactly every Nth operation in
// arrival order, whatever keys the operations touch.
func TestInjectorEverySchedule(t *testing.T) {
	spec, err := ParseSpec("put.err=1/3")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(spec)
	for i := 1; i <= 30; i++ {
		hit, _ := in.decide(OpPut, KindErr, "k"+strconv.Itoa(i%4))
		if want := i%3 == 0; hit != want {
			t.Fatalf("op %d: hit = %v, want %v", i, hit, want)
		}
	}
	if got := in.InjectedTotal(); got != 10 {
		t.Fatalf("InjectedTotal = %d, want 10", got)
	}
}

// TestInjectorConcurrentMultiset: N goroutines hammering one injector
// over a shared key set inject as many faults as a serial replay of the
// same operations.
func TestInjectorConcurrentMultiset(t *testing.T) {
	spec, err := ParseSpec("seed=5,get.err=0.4")
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 500

	serial := NewInjector(spec)
	var wantHits int
	for i := 0; i < workers*perWorker; i++ {
		if hit, _ := serial.decide(OpGet, KindErr, "k"+strconv.Itoa(i%perWorker)); hit {
			wantHits++
		}
	}

	conc := NewInjector(spec)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				conc.decide(OpGet, KindErr, "k"+strconv.Itoa(i))
			}
		}()
	}
	wg.Wait()
	if got := conc.InjectedTotal(); got != uint64(wantHits) {
		t.Fatalf("concurrent hits = %d, serial hits = %d", got, wantHits)
	}
}

// TestInjectorKeyAddressedDecisions: a key's decisions depend only on
// the key and its attempt number, never on arrival order. One key
// multiset, fed by 8 goroutines in shuffled orders, must give every key
// the same decisions as a serial pass. A global per-(op, kind) operation
// index fails this: the same key draws different indices in different
// orders.
func TestInjectorKeyAddressedDecisions(t *testing.T) {
	spec, err := ParseSpec("seed=3,get.err=0.5,put.corrupt=0.5")
	if err != nil {
		t.Fatal(err)
	}
	const keys, attempts, workers = 64, 4, 8
	var ops []string
	for k := 0; k < keys; k++ {
		for a := 0; a < attempts; a++ {
			ops = append(ops, "key-"+strconv.Itoa(k))
		}
	}
	// decisions feeds ops from `workers` goroutines (one when serial) and
	// returns each key's sorted decision bits under both rules.
	decisions := func(ops []string, workers int) map[string][]uint64 {
		in := NewInjector(spec)
		var mu sync.Mutex
		got := map[string][]uint64{}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(ops); i += workers {
					key := ops[i]
					_, getBits := in.decide(OpGet, KindErr, key)
					_, putBits := in.decide(OpPut, KindCorrupt, key)
					mu.Lock()
					got[key] = append(got[key], getBits, putBits)
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		for _, d := range got {
			sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		}
		return got
	}
	want := decisions(ops, 1)
	fired := 0
	for _, d := range want {
		for _, bits := range d {
			if bits != 0 {
				fired++
			}
		}
	}
	if fired == 0 || fired == 2*len(ops) {
		t.Fatalf("%d of %d decisions fired; the test needs a mix", fired, 2*len(ops))
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 4; trial++ {
		shuffled := append([]string(nil), ops...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := decisions(shuffled, workers)
		for key, w := range want {
			if !slices.Equal(got[key], w) {
				t.Fatalf("trial %d: key %s decided %x, serial pass decided %x", trial, key, got[key], w)
			}
		}
	}
}

func TestCorruptNeverMutatesInput(t *testing.T) {
	orig := []byte("the quick brown fox jumps over the lazy dog")
	for bits := uint64(0); bits < 512; bits++ {
		data := append([]byte(nil), orig...)
		out := corrupt(data, bits)
		if !bytes.Equal(data, orig) {
			t.Fatalf("bits %d mutated the input", bits)
		}
		if bytes.Equal(out, orig) {
			t.Fatalf("bits %d left the output unchanged", bits)
		}
		if bits&1 == 0 {
			if len(out) != len(orig) {
				t.Fatalf("bits %d (flip) changed length %d -> %d", bits, len(orig), len(out))
			}
		} else if len(out) >= len(orig) {
			t.Fatalf("bits %d (truncate) did not shorten: %d -> %d", bits, len(orig), len(out))
		}
	}
	if out := corrupt(nil, 2); out != nil {
		t.Fatalf("corrupt(nil) = %v", out)
	}
}

func TestWrapPutEnospc(t *testing.T) {
	spec, err := ParseSpec("put.enospc=1")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(spec)
	data := []byte("payload")
	out, err := in.WrapPut("k", data)
	if out != nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("WrapPut = (%v, %v), want (nil, ErrInjected)", out, err)
	}
}

func TestWrapGetPassThroughWhenRuleCold(t *testing.T) {
	spec, err := ParseSpec("get.corrupt=1/2")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(spec)
	data := []byte("payload")
	// Op 1 of a 1/2 schedule never fires; the exact slice passes through.
	out, err := in.WrapGet("k", data)
	if err != nil || &out[0] != &data[0] {
		t.Fatalf("cold WrapGet copied or errored: %v", err)
	}
	out, err = in.WrapGet("k", data)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out, data) {
		t.Fatal("op 2 of 1/2 schedule did not corrupt")
	}
}

func TestCountsListsActiveRulesSorted(t *testing.T) {
	spec, err := ParseSpec("put.err=1,get.delay=1ms,get.corrupt=1")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(spec)
	in.decide(OpPut, KindErr, "k")
	rcs := in.Counts()
	if len(rcs) != 3 {
		t.Fatalf("Counts lists %d rules, want 3", len(rcs))
	}
	if !sort.SliceIsSorted(rcs, func(i, j int) bool {
		if rcs[i].Op != rcs[j].Op {
			return rcs[i].Op < rcs[j].Op
		}
		return rcs[i].Kind < rcs[j].Kind
	}) {
		t.Fatalf("Counts not sorted: %+v", rcs)
	}
	for _, rc := range rcs {
		if rc.Op == "put" && rc.Kind == "err" {
			if rc.Ops != 1 || rc.Injected != 1 {
				t.Fatalf("put.err counts = %+v, want 1/1", rc)
			}
		}
	}
}

// fakeStore is a controllable ErrStore for wrapper and breaker tests.
type fakeStore struct {
	mu   sync.Mutex
	data map[string]any
	gets int
	puts int
	fail error
}

func newFakeStore() *fakeStore { return &fakeStore{data: map[string]any{}} }

func (f *fakeStore) GetE(key string) (any, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	if f.fail != nil {
		return nil, false, f.fail
	}
	v, ok := f.data[key]
	return v, ok, nil
}

func (f *fakeStore) PutE(key string, val any) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	if f.fail != nil {
		return f.fail
	}
	f.data[key] = val
	return nil
}

func (f *fakeStore) setFail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail = err
}

func (f *fakeStore) counts() (gets, puts int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gets, f.puts
}

// TestStoreErrInjectionSkipsInner: an injected error must behave like an
// I/O layer that failed before the syscall — the inner store is never
// touched.
func TestStoreErrInjectionSkipsInner(t *testing.T) {
	spec, err := ParseSpec("get.err=1,put.err=1")
	if err != nil {
		t.Fatal(err)
	}
	inner := newFakeStore()
	s := NewStore(inner, NewInjector(spec))

	if _, ok, err := s.GetE("k"); ok || !errors.Is(err, ErrInjected) {
		t.Fatalf("GetE under get.err=1: ok=%v err=%v", ok, err)
	}
	if err := s.PutE("k", 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("PutE under put.err=1: %v", err)
	}
	if gets, puts := inner.counts(); gets != 0 || puts != 0 {
		t.Fatalf("inner store touched: %d gets, %d puts", gets, puts)
	}
	// The engine.Store adapters read the same faults as miss / no-op.
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get adapter reported a hit under injection")
	}
	s.Put("k", 1)
	if gets, puts := inner.counts(); gets != 0 || puts != 0 {
		t.Fatalf("adapters touched inner store: %d gets, %d puts", gets, puts)
	}
}

func TestStoreDelayInjection(t *testing.T) {
	spec, err := ParseSpec("get.delay=30ms")
	if err != nil {
		t.Fatal(err)
	}
	inner := newFakeStore()
	inner.data["k"] = "v"
	s := NewStore(inner, NewInjector(spec))
	start := time.Now()
	v, ok, err := s.GetE("k")
	if err != nil || !ok || v != "v" {
		t.Fatalf("GetE = (%v, %v, %v)", v, ok, err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delayed get returned after %s, want >= 30ms", d)
	}
}
