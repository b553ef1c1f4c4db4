package main

import "fmt"

// workload is one traffic mix. Every workload drives the real serving stack
// closed-loop: each lane (a direct client.Client, or one client.Mux stream)
// sends its next batch only after the previous reply came back and was
// verified, which is how every BXTP caller behaves.
type workload struct {
	name   string
	scheme string
	batch  int
	// conns is the number of TCP connections, at most two. The stack runs
	// on one core, so a second direct lane queues behind the first: on
	// small-direct that wait is what keeps its round trip steady, because a
	// lone 16-transaction round trip is short enough for the host's own
	// scheduling noise to set its 99th percentile. bdenc-direct keeps one
	// connection: with two, the order in which the lanes' long batches
	// interleaved moved its median round trip from run to run.
	conns int
	// streams is the number of client.Mux streams per connection; 0 runs
	// one direct client.Client per connection instead.
	streams int
	proxied bool
}

// workloads are chosen so that each optimisable layer has a workload that
// exercises it and one that bypasses it:
//   - small-direct: 16-transaction universal batches from two direct
//     clients, where per-batch fixed cost (framing, trace encode/parse,
//     loopback syscalls) dominates and the codec is a sliver: the bypass
//     case for codec work.
//   - bdenc-direct: 256-transaction BD-Encoding batches, where the stateful,
//     metadata-bearing codec and per-beat bus accounting dominate.
//   - mux-proxied: 4b through bxtproxy over one connection x 8 v4 streams,
//     for proxy relay, stream demux on all three tiers, and admission with
//     several batches in flight.
//
// No workload serves with the similarity cache on. Its lookups and inserts
// are memory-bound (about 5 us per insert at the default capacity), and a
// cached workload's round trip moved by about 35% with the host's speed
// from one minute to the next, more than the benchmark's bounds allow.
// The traced run measures the cache by replaying each workload's own
// batches through it instead.
var workloads = []workload{
	{name: "small-direct", scheme: "universal", batch: 16, conns: 2},
	{name: "bdenc-direct", scheme: "bdenc", batch: 256, conns: 1},
	{name: "mux-proxied", scheme: "4b", batch: 256, conns: 1, streams: 8, proxied: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// lanes is the number of closed-loop callers.
func (w workload) lanes() int {
	if w.streams > 0 {
		return w.conns * w.streams
	}
	return w.conns
}
