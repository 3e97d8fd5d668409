package sim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// TestKernelRunsEventsInTimeOrder: each input schedules its events in
// the order listed, and their labels must run in ascending order: by
// time, and FIFO among events at the same time.
func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	type timed struct {
		at    Time
		label int
	}
	// 250 events at distinct times, then 100 sharing one later time.
	var many []timed
	for i := 0; i < 250; i++ {
		many = append(many, timed{Time(i) * Time(Millisecond), i})
	}
	for i := 0; i < 100; i++ {
		many = append(many, timed{Time(Second), 10_000 + i})
	}
	for _, tc := range []struct {
		name   string
		events []timed
	}{
		{"three out of order", []timed{{Time(30 * Millisecond), 3}, {Time(10 * Millisecond), 1}, {Time(20 * Millisecond), 2}}},
		{"350 with a same-time run", many},
	} {
		k := NewKernel()
		var got []int
		for _, e := range tc.events {
			k.At(e.at, func() { got = append(got, e.label) })
		}
		k.Run()
		if len(got) != len(tc.events) {
			t.Fatalf("%s: ran %d events, want %d", tc.name, len(got), len(tc.events))
		}
		for j := 1; j < len(got); j++ {
			if got[j-1] >= got[j] {
				t.Fatalf("%s: order violated at %d: %d then %d", tc.name, j, got[j-1], got[j])
			}
		}
	}
}

// TestKernelOrderSurvivesQueueRegrowth: once part of the queue has run,
// the heap slice shrinks and its freed slots are refilled by later At
// calls; events scheduled then, including a same-time run, must still
// interleave with the older ones in (time, FIFO) order.
func TestKernelOrderSurvivesQueueRegrowth(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 250; i++ {
		k.At(Time(i)*Time(Millisecond), func() { got = append(got, 2*i) })
		// Eight no-op events per labelled one deepen the queue.
		for j := 0; j < 8; j++ {
			k.At(Time(i)*Time(Millisecond)+Time(j+1), func() {})
		}
	}
	k.RunUntil(Time(100 * Millisecond))
	// Odd labels land half a millisecond after each pending even one.
	for i := 100; i < 250; i++ {
		k.At(Time(i)*Time(Millisecond)+Time(500*Microsecond), func() { got = append(got, 2*i+1) })
	}
	for i := 0; i < 100; i++ {
		k.At(Time(Second), func() { got = append(got, 10_000+i) })
	}
	k.Run()
	if len(got) != 500 {
		t.Fatalf("ran %d labelled events, want 500", len(got))
	}
	for j := 1; j < len(got); j++ {
		if got[j-1] >= got[j] {
			t.Fatalf("order violated at %d: %d then %d", j, got[j-1], got[j])
		}
	}
}

// TestKernelRandomScheduleRunsInStableTimeOrder: seeded random mixes of
// At, After, Step and RunUntil, from outside and from inside running
// events, with most events tied on a handful of instants and queues from
// empty to a few hundred deep. Every event ever scheduled is no earlier
// than the clock, so the whole run order must equal a stable sort of the
// schedule by time, and each event must run at its own time.
func TestKernelRandomScheduleRunsInStableTimeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 100; round++ {
		k := NewKernel()
		var at []Time // at[id]: time event id was scheduled for
		var ran []int
		var schedule func()
		schedule = func() {
			id := len(at)
			// Few distinct offsets, so most events tie with others.
			when := k.Now() + Time(rng.Intn(4))*Time(rng.Intn(3))
			at = append(at, when)
			fn := func() {
				if k.Now() != at[id] {
					t.Fatalf("round %d: event %d ran at %v, want %v", round, id, k.Now(), at[id])
				}
				ran = append(ran, id)
				if rng.Intn(4) == 0 {
					schedule()
				}
			}
			if rng.Intn(2) == 0 {
				k.At(when, fn)
			} else {
				k.After(when.Sub(k.Now()), fn)
			}
		}
		for op := 0; op < 40; op++ {
			switch rng.Intn(4) {
			case 0, 1:
				for n := rng.Intn(100); n > 0; n-- {
					schedule()
				}
			case 2:
				for n := rng.Intn(300); n > 0 && k.Step(); n-- {
				}
			case 3:
				k.RunUntil(k.Now() + Time(rng.Intn(3)))
			}
		}
		k.Run()
		want := make([]int, len(at))
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(at[a], at[b]) })
		if !slices.Equal(ran, want) {
			t.Fatalf("round %d: %d events ran out of stable time order", round, len(at))
		}
	}
}

func TestKernelSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestKernelClockAdvances(t *testing.T) {
	k := NewKernel()
	var at Time
	k.After(7*Millisecond, func() { at = k.Now() })
	k.Run()
	if at != Time(7*Millisecond) {
		t.Fatalf("event ran at %v, want 7ms", at)
	}
	if k.Now() != Time(7*Millisecond) {
		t.Fatalf("clock = %v after run, want 7ms", k.Now())
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			k.After(Millisecond, tick)
		}
	}
	k.After(0, tick)
	k.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if k.Now() != Time(4*Millisecond) {
		t.Fatalf("clock = %v, want 4ms", k.Now())
	}
}

func TestKernelSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.After(Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(0, func() {})
	})
	k.Run()
}

func TestKernelNegativeDelayClamped(t *testing.T) {
	k := NewKernel()
	ran := false
	k.After(-time.Second, func() { ran = true })
	k.Run()
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if k.Now() != 0 {
		t.Fatalf("clock = %v, want 0", k.Now())
	}
}

// TestKernelAfterSaturates: a delay beyond the clock's range schedules
// the event at the clock's last instant instead of wrapping into the
// past.
func TestKernelAfterSaturates(t *testing.T) {
	k := NewKernel()
	k.RunUntil(1) // from 0 the sum would not wrap
	ran := false
	k.After(DurationOfSeconds(1e300), func() { ran = true })
	k.RunUntil(math.MaxInt64 - 1)
	if ran {
		t.Fatal("saturated event ran before the clock's last instant")
	}
	k.Run()
	if !ran || k.Now() != math.MaxInt64 {
		t.Fatalf("saturated event ran=%v at %v, want at %v", ran, k.Now(), Time(math.MaxInt64))
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, d := range []Duration{Millisecond, 2 * Millisecond, 5 * Millisecond} {
		k.After(d, func() { fired = append(fired, k.Now()) })
	}
	k.RunUntil(Time(3 * Millisecond))
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if k.Now() != Time(3*Millisecond) {
		t.Fatalf("clock = %v, want 3ms", k.Now())
	}
	k.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d events after full run, want 3", len(fired))
	}
}

// Property: however events are scheduled, execution observes monotonically
// non-decreasing timestamps.
func TestKernelMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			k.After(Duration(d)*Microsecond, func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeConversions(t *testing.T) {
	tm := Time(1500 * Millisecond)
	if got := tm.Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", got)
	}
	if got := tm.Millis(); got != 1500 {
		t.Fatalf("Millis = %v, want 1500", got)
	}
	if got := tm.Add(500 * Millisecond); got != Time(2*Second) {
		t.Fatalf("Add = %v, want 2s", got)
	}
	if got := tm.Sub(Time(Second)); got != 500*Millisecond {
		t.Fatalf("Sub = %v, want 500ms", got)
	}
}

func TestDurationOfSeconds(t *testing.T) {
	for _, tc := range []struct {
		s    float64
		want Duration
	}{
		{0.001, Millisecond},
		{-5, 0},
		{1e300, math.MaxInt64}, // saturates instead of wrapping
		{math.NaN(), 0},
	} {
		if got := DurationOfSeconds(tc.s); got != tc.want {
			t.Fatalf("DurationOfSeconds(%v) = %v, want %v", tc.s, got, tc.want)
		}
	}
}
