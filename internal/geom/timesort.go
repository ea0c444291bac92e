package geom

// SortByTime orders events by their instant, ties in input order, and
// returns the sorted events: events or spare, a scratch as long as
// events, whichever the last pass wrote. Every instant lies in [lo, hi].
// It makes one stable counting pass per byte of uint64(t) − uint64(lo),
// low byte first, up to the highest byte the span hi − lo reaches, so its
// time is linear in the events whatever the span — two passes for a
// 1 000-instant horizon, eight for one across the whole int64 range —
// and no count array is sized by the span.
func SortByTime[E any](events, spare []E, lo, hi int64, instant func(*E) int64) []E {
	span := uint64(hi) - uint64(lo)
	for shift := uint(0); shift < 64 && span>>shift != 0; shift += 8 {
		var count [256]int
		for i := range events {
			count[byte((uint64(instant(&events[i]))-uint64(lo))>>shift)]++
		}
		sum := 0
		for b, c := range count {
			count[b] = sum
			sum += c
		}
		for i := range events {
			b := byte((uint64(instant(&events[i])) - uint64(lo)) >> shift)
			spare[count[b]] = events[i]
			count[b]++
		}
		events, spare = spare, events
	}
	return events
}
