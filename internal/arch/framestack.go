package arch

import "slices"

// frameStack holds one record per activation, sorted by frame id. The
// interpreter numbers activations in call order, so a live call stack is
// sorted with the innermost activation last: a lookup scans down from the
// top and stops once it passes the id, finding the current activation at
// once and ruling out a new one after a single compare. Records are pooled
// so the steady state allocates nothing; open hands back a recycled record
// with stale contents for the caller to reinitialize.
type frameStack[T any] struct {
	ids  []int64
	recs []*T
	pool []*T
}

// find returns the index of id's record, or -1.
func (s *frameStack[T]) find(id int64) int {
	for i := len(s.ids) - 1; i >= 0 && s.ids[i] >= id; i-- {
		if s.ids[i] == id {
			return i
		}
	}
	return -1
}

// open files a record for id, which must have none, at its sorted position.
func (s *frameStack[T]) open(id int64) *T {
	var r *T
	if n := len(s.pool); n > 0 {
		r = s.pool[n-1]
		s.pool = s.pool[:n-1]
	} else {
		r = new(T)
	}
	i := len(s.ids)
	for i > 0 && s.ids[i-1] > id {
		i--
	}
	s.ids = slices.Insert(s.ids, i, id)
	s.recs = slices.Insert(s.recs, i, r)
	return r
}

// drop recycles the record at index i.
func (s *frameStack[T]) drop(i int) {
	s.pool = append(s.pool, s.recs[i])
	s.ids = slices.Delete(s.ids, i, i+1)
	s.recs = slices.Delete(s.recs, i, i+1)
}

// reset recycles every record.
func (s *frameStack[T]) reset() {
	s.pool = append(s.pool, s.recs...)
	clear(s.recs)
	s.ids, s.recs = s.ids[:0], s.recs[:0]
}
