package mips

// KKTStaticReg is the static regularization −δ of the dual diagonal.
const KKTStaticReg = kktStaticReg

// StampWork returns the size of s's packed KKT system and the work of
// one stamp: the multiplies of the w-weighted outer products (one w·J
// and one product per pair of a row's entries) and the slot writes of
// every contribution.
func StampWork(s *Stepper) (slots, mults, writes int) {
	k, in := &s.ar.kkt, &s.ar.ineq
	for r := 0; r < in.m.NRows; r++ {
		n := in.rowPtr[r+1] - in.rowPtr[r]
		mults += n + n*(n+1)/2
	}
	writes = len(k.outer) + len(k.hessPos) + len(k.jgPos) + len(k.dual)
	return len(k.v), mults, writes
}
