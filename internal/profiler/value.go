package profiler

// ValueStats accumulates the iteration-start value pattern of one register
// across the iterations of one loop. The SPT compiler's software value
// prediction (Section 4.4) consults it to decide whether a loop-carried
// value is predictable (constant or stride) and with what confidence.
type ValueStats struct {
	Samples int64           // number of consecutive-iteration deltas observed
	Deltas  map[int64]int64 // delta -> occurrences (capped); filled when collection ends
	dropped int64           // deltas not recorded because the histogram was full

	// The histogram itself: the first maxDeltaClasses distinct deltas in
	// order of appearance, with their counts.
	classes  [maxDeltaClasses]deltaClass
	nclasses int
}

// deltaClass is one histogram bucket.
type deltaClass struct{ d, n int64 }

// maxDeltaClasses bounds the per-register delta histogram.
const maxDeltaClasses = 16

func newValueStats() *ValueStats { return &ValueStats{} }

func (v *ValueStats) observe(delta int64) {
	v.Samples++
	for i := range v.classes[:v.nclasses] {
		if v.classes[i].d == delta {
			v.classes[i].n++
			return
		}
	}
	if v.nclasses == maxDeltaClasses {
		v.dropped++
		return
	}
	v.classes[v.nclasses] = deltaClass{d: delta, n: 1}
	v.nclasses++
}

// fill publishes the histogram as Deltas.
func (v *ValueStats) fill() {
	v.Deltas = make(map[int64]int64, v.nclasses)
	for _, c := range v.classes[:v.nclasses] {
		v.Deltas[c.d] = c.n
	}
}

// BestStride returns the most frequent iteration-to-iteration delta (the
// smallest one among equally frequent deltas) and the fraction of
// iterations it covers. A stride of 0 means the value is predictable by
// last-value prediction. ok is false when there are no samples.
func (v *ValueStats) BestStride() (stride int64, prob float64, ok bool) {
	if v == nil || v.Samples == 0 || v.nclasses == 0 {
		return 0, 0, false
	}
	best := v.classes[0]
	for _, c := range v.classes[1:v.nclasses] {
		if c.n > best.n || (c.n == best.n && c.d < best.d) {
			best = c
		}
	}
	return best.d, float64(best.n) / float64(v.Samples), true
}
