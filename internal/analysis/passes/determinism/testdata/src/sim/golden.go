// Golden sources for the determinism analyzer, loaded under the synthetic
// import path obfusmem/internal/sim so the scope filter applies.
package sim

import (
	"math/rand"
	"sort"
	"time"
)

func wallRead() int64 {
	return time.Now().UnixNano() // want "time.Now outside"
}

func wallSince(t0 time.Time) float64 {
	return time.Since(t0).Seconds() // want "time.Since outside"
}

// rates legitimately anchors throughput gauges to the wall clock.
//
//obfus:wallclock
func rates() time.Time {
	return time.Now()
}

func globalRand() int {
	return rand.Intn(6) // want "global math/rand"
}

func seededRand() int {
	r := rand.New(rand.NewSource(42))
	return r.Intn(6)
}

func spawn(f func()) {
	go f() // want "goroutine outside the exp worker pool"
}

func keysUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "no total-order sort"
	}
	return keys
}

func keysPartialSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "no total-order sort"
	}
	// sort.Slice does not qualify: a partial comparator keeps map order
	// among ties.
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func keysSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func copyMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func loopLocal(m map[string]int) int {
	n := 0
	for _, v := range m {
		double := v * 2
		if double > 10 {
			n++
		}
	}
	return n
}

func lastWriter(m map[string]int) int {
	var last int
	for _, v := range m {
		last = v // want "order-dependent write"
	}
	return last
}

func floatSum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v // want "order-dependent write"
	}
	return s
}

func emit(m map[string]int, f func(int)) {
	for _, v := range m {
		f(v) // want "call with side effects inside map-range"
	}
}

func prune(m map[string]int) {
	for k, v := range m {
		if v == 0 {
			delete(m, k)
		}
	}
}

func allowedMax(m map[string]int) int {
	best := 0
	for _, v := range m {
		if v > best {
			//lint:allow determinism max over the values is order-insensitive
			best = v
		}
	}
	return best
}

// Model code may not use raw goroutine channels: delivery order would follow
// the scheduler, not simulated time.

func chanSend(ch chan int) {
	ch <- 1 // want "raw channel send"
}

func chanRecv(ch chan int) int {
	return <-ch // want "raw channel receive"
}

func chanRange(ch chan int) int {
	n := 0
	for v := range ch { // want "range over a channel"
		n += v
	}
	return n
}

func allowedWorker(run func()) {
	//lint:allow determinism worker held bit-identical by the determinism gate
	go run()
}
