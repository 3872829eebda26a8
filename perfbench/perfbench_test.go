package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the root
		{Name: "d", Start: 15, End: 20, Parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestFoldPicksInnermostLayerFrame(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"math/rand.(*rngSource).Seed", "compilegate/internal/engine.(*Server).getRNG", "compilegate/internal/cluster.(*Router).Submit"}, "engine"},
		{[]string{"runtime.mallocgc", "compilegate/internal/plan.(*Query).Reset", "compilegate/internal/sqlparser.ParseInto"}, "sqlparser"},
		{[]string{"compilegate/internal/vtime.(*Pool[go.shape.int]).Get"}, "vtime"},
		{[]string{"compilegate/internal/catalog.NewSales", "main.main"}, bucketOther},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, bucketGC},
	}
	for _, c := range cases {
		if got := fold(c.stack); got != c.want {
			t.Errorf("fold(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestFoldCPUReadsRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	by, err := foldCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The test's own frames are main-package frames: other.
	if s := shares(by)[bucketOther]; s < 0.5 {
		t.Errorf("spin loop folded to other with share %.2f, want most of the profile (%v)", s, by)
	}
}
