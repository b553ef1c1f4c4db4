package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"

	"github.com/hpca18/bxt/internal/trace"
	gpu "github.com/hpca18/bxt/internal/workload"
)

const (
	// txnSize is the GPU sector every workload moves.
	txnSize = 32
	// nearBits is simcache's default exclusive near-duplicate threshold.
	nearBits = 12
	// propertyTxns is how many leading transactions of each lane's stream
	// the input-property shares are measured over, and nearWindow how many
	// of the most recent distinct transactions a near repeat is sought in.
	propertyTxns = 16384
	nearWindow   = 1024
)

// appTrace is one GPU-suite application's trace, flattened into addresses,
// kinds and one payload buffer. The suite stays alive for the whole run;
// as a few pointer-free buffers per application it gives the garbage
// collector, which the stack shares the process with, nothing to scan,
// where hundreds of thousands of separately allocated payloads would.
type appTrace struct {
	addr []uint64
	kind []trace.Kind
	data []byte
}

func (a *appTrace) len() int { return len(a.addr) }

func (a *appTrace) txn(i int) trace.Transaction {
	return trace.Transaction{Addr: a.addr[i], Kind: a.kind[i], Data: a.data[i*txnSize : (i+1)*txnSize : (i+1)*txnSize]}
}

// suiteTraces generates the trace of every GPU-suite application once; the
// pooled sources share them read-only.
func suiteTraces() []appTrace {
	apps := gpu.GPUSuite()
	out := make([]appTrace, len(apps))
	for i, a := range apps {
		txns := a.Trace()
		t := appTrace{addr: make([]uint64, len(txns)), kind: make([]trace.Kind, len(txns)), data: make([]byte, len(txns)*txnSize)}
		for j, x := range txns {
			if len(x.Data) != txnSize {
				panic(fmt.Sprintf("GPU-suite application %s moves %d-byte transactions, the benchmark %d", a.Name, len(x.Data), txnSize))
			}
			t.addr[j], t.kind[j] = x.Addr, x.Kind
			copy(t.data[j*txnSize:], x.Data)
		}
		out[i] = t
	}
	return out
}

// source is one lane's input stream: deterministic in (workload, seed,
// lane), so the offline verification can regenerate exactly what the lane
// sent. It walks every GPU-suite trace in a seeded order from a seeded
// offset, so each run covers the whole suite's data models and seeds
// differ in order, not in mix.
type source struct {
	out []trace.Transaction

	suite []appTrace
	order []int
	app   int
	pos   int
}

func laneRNG(seed int64, lane int, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(lane)*7919 + salt))
}

func newSource(w workload, seed int64, lane int, suite []appTrace) *source {
	s := &source{out: make([]trace.Transaction, w.batch)}
	rng := laneRNG(seed, lane, 1)
	s.suite = suite
	s.order = rng.Perm(len(suite))
	s.pos = rng.Intn(suite[s.order[0]].len())
	return s
}

// next returns the lane's next batch. The slice is reused by the following
// call.
func (s *source) next() []trace.Transaction {
	for i := range s.out {
		t := &s.suite[s.order[s.app]]
		s.out[i] = t.txn(s.pos)
		if s.pos++; s.pos == t.len() {
			s.pos = 0
			s.app = (s.app + 1) % len(s.order)
		}
	}
	return s.out
}

// properties are the shares of a workload's generated transactions that
// carry each property a cache or fast path can exploit.
type properties struct {
	exact, near, consecutive, zero float64
}

// measureProperties classifies the first propertyTxns transactions of every
// lane's stream, each lane against its own history: an exact repeat equals
// an earlier transaction, a near repeat is not exact but lies under
// simcache's nearBits Hamming threshold of one of the nearWindow most recent
// distinct transactions, a consecutive
// duplicate equals the transaction just before it in its batch (the
// sameTxn batch fast path), and all-zero is what it says.
func measureProperties(w workload, seed int64, suite []appTrace) properties {
	var exact, near, consec, zero, total int
	for lane := 0; lane < w.lanes(); lane++ {
		src := newSource(w, seed, lane, suite)
		seen := map[[txnSize]byte]struct{}{}
		var distinct [][4]uint64
		for n := 0; n < propertyTxns; {
			batch := src.next()
			for i, t := range batch {
				var key [txnSize]byte
				copy(key[:], t.Data)
				var words [4]uint64
				allZero := true
				for k := range words {
					words[k] = binary.LittleEndian.Uint64(t.Data[k*8:])
					allZero = allZero && words[k] == 0
				}
				if allZero {
					zero++
				}
				if i > 0 && string(batch[i-1].Data) == string(t.Data) {
					consec++
				}
				if _, ok := seen[key]; ok {
					exact++
				} else {
					recent := distinct
					if len(recent) > nearWindow {
						recent = recent[len(recent)-nearWindow:]
					}
					if withinHamming(recent, words, nearBits) {
						near++
					}
					seen[key] = struct{}{}
					distinct = append(distinct, words)
				}
				total++
				n++
			}
		}
	}
	f := func(c int) float64 { return float64(c) / float64(total) }
	return properties{exact: f(exact), near: f(near), consecutive: f(consec), zero: f(zero)}
}

func withinHamming(set [][4]uint64, w [4]uint64, limit int) bool {
	for _, s := range set {
		d := bits.OnesCount64(s[0]^w[0]) + bits.OnesCount64(s[1]^w[1]) +
			bits.OnesCount64(s[2]^w[2]) + bits.OnesCount64(s[3]^w[3])
		if d < limit {
			return true
		}
	}
	return false
}
