// Fixture for the memoalias analyzer: single-flight entries (structs with
// a `ready chan struct{}` field) must not leak aliasable fields raw.
package memoalias

type result struct {
	Mapping []int
	Value   float64
}

type entry struct {
	key   string
	ready chan struct{}
	res   result
	err   error
}

func cloneResult(r result) result {
	out := r
	out.Mapping = append([]int(nil), r.Mapping...)
	return out
}

func cloneStored(r result, err error) result {
	if err != nil {
		return r
	}
	return cloneResult(r)
}

func badReturn(e *entry) (result, error) {
	<-e.ready
	return e.res, e.err // want "memoized e.res escapes"
}

func badStore(e *entry) []int {
	m := e.res.Mapping // want "memoized e.res.Mapping escapes"
	return m
}

func goodClone(e *entry) (result, error) {
	<-e.ready
	return cloneStored(e.res, e.err), e.err
}

func goodWrite(e *entry, r result, err error) {
	e.res, e.err = r, err
}

func goodScalar(e *entry) float64 {
	return e.res.Value
}

func goodKey(e *entry) string {
	return e.key
}

type planEntry struct {
	ready chan struct{}
	pl    *result
}

func badShared(e *planEntry) *result {
	return e.pl // want "memoized e.pl escapes"
}

func allowShared(e *planEntry) *result {
	//lint:allow memoalias fixture: the pointee is immutable by construction
	return e.pl
}

type plain struct {
	res result
}

func notAnEntry(p *plain) result {
	return p.res
}

// genericEntry is a single-flight entry whose value type is a type
// parameter: it may be instantiated with a slice or pointer, so its value
// must pass through a clone like any other aliasable field.
type genericEntry[V any] struct {
	key   string
	ready chan struct{}
	val   V
	err   error
}

type genericCache[V any] struct {
	clone func(V) V
}

func (c *genericCache[V]) badGeneric(e *genericEntry[V]) (V, error) {
	<-e.ready
	return e.val, e.err // want "memoized e.val escapes"
}

func (c *genericCache[V]) goodGeneric(e *genericEntry[V]) (V, error) {
	<-e.ready
	return c.clone(e.val), e.err
}

func (c *genericCache[V]) genericWrite(e *genericEntry[V], v V) {
	e.val = v
}
