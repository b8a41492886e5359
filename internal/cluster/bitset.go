package cluster

import "math/bits"

// nodeSet is a bitset over node indices with find-first-set iteration. The
// simulator keeps one per slot type as its free-slot index: bit i is set iff
// node i is up and has at least one free slot of that type, so dispatch
// scans cost O(words touched) instead of O(nodes) per offer.
type nodeSet struct {
	w []uint64
}

// reset sizes the set for n nodes with every bit clear, reusing the backing
// array when possible.
func (b *nodeSet) reset(n int) {
	words := (n + 63) / 64
	if cap(b.w) < words {
		b.w = make([]uint64, words)
		return
	}
	b.w = b.w[:words]
	clear(b.w)
}

// fill sizes the set for n nodes with bits 0..n-1 set.
func (b *nodeSet) fill(n int) {
	b.reset(n)
	for i := range b.w {
		b.w[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		b.w[len(b.w)-1] = (uint64(1) << r) - 1
	}
}

func (b *nodeSet) set(i int)      { b.w[i>>6] |= 1 << (uint(i) & 63) }
func (b *nodeSet) clear(i int)    { b.w[i>>6] &^= 1 << (uint(i) & 63) }
func (b *nodeSet) has(i int) bool { return b.w[i>>6]&(1<<(uint(i)&63)) != 0 }

// next returns the smallest set index >= from, or -1 when none remains —
// exactly the "first node with a free slot, scanning upward" order the
// linear scan it replaces produced.
func (b *nodeSet) next(from int) int {
	if from < 0 {
		from = 0
	}
	wi := from >> 6
	if wi >= len(b.w) {
		return -1
	}
	word := b.w[wi] &^ ((uint64(1) << (uint(from) & 63)) - 1)
	for {
		if word != 0 {
			return wi<<6 + bits.TrailingZeros64(word)
		}
		wi++
		if wi == len(b.w) {
			return -1
		}
		word = b.w[wi]
	}
}
