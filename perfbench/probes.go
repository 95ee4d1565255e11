package main

import (
	"sync"
	"sync/atomic"
	"time"

	"actop/internal/actor"
	"actop/internal/codec"
	"actop/internal/transport"
)

// The traced run's own spans live in this file: they wrap calls into each
// module's public functions from the outside (the transport handed to
// actor.Config, codec.Marshal/Unmarshal and Context.Call inside the
// benchmark's actors), so no runtime package changes. In an untraced run
// every probe is nil and each wrapper is one nil check.

// spanStat aggregates one span kind: how many, and their summed duration.
type spanStat struct{ n, ns atomic.Int64 }

func (s *spanStat) add(d time.Duration) {
	s.n.Add(1)
	s.ns.Add(int64(d))
}

func (s *spanStat) load() (n, ns int64) { return s.n.Load(), s.ns.Load() }

// probes collects the benchmark actors' spans: whole turns (Receive), the
// codec calls and nested Context.Calls inside them. A turn's self time is
// its span minus the part of it its child spans cover; covered sums that
// part (a concurrent fan-out covers its wall time once, not per call).
type probes struct {
	turn, encode, decode, nested spanStat
	covered                      atomic.Int64
	codecBytes                   atomic.Int64
	nestedTimeouts               atomic.Int64
}

// turnStart opens a turn span; pass the result to turnEnd.
func (p *probes) turnStart() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

func (p *probes) turnEnd(t time.Time) {
	if p != nil {
		p.turn.add(time.Since(t))
	}
}

// marshal is codec.Marshal under a codec.encode span.
func (p *probes) marshal(v interface{}) ([]byte, error) {
	if p == nil {
		return codec.Marshal(v)
	}
	t := time.Now()
	b, err := codec.Marshal(v)
	d := time.Since(t)
	p.encode.add(d)
	p.covered.Add(int64(d))
	p.codecBytes.Add(int64(len(b)))
	return b, err
}

// unmarshal is codec.Unmarshal under a codec.decode span.
func (p *probes) unmarshal(b []byte, v interface{}) error {
	if p == nil {
		return codec.Unmarshal(b, v)
	}
	t := time.Now()
	err := codec.Unmarshal(b, v)
	d := time.Since(t)
	p.decode.add(d)
	p.covered.Add(int64(d))
	p.codecBytes.Add(int64(len(b)))
	return err
}

// call is Context.Call under an actor.nested_call span.
func (p *probes) call(ctx *actor.Context, to actor.Ref, method string, args, reply interface{}) error {
	if p == nil {
		return ctx.Call(to, method, args, reply)
	}
	t := time.Now()
	err := p.nestedCall(ctx, to, method, args, reply)
	p.covered.Add(int64(time.Since(t)))
	return err
}

func (p *probes) nestedCall(ctx *actor.Context, to actor.Ref, method string, args, reply interface{}) error {
	t := time.Now()
	err := ctx.Call(to, method, args, reply)
	p.nested.add(time.Since(t))
	if isTimeout(err) {
		p.nestedTimeouts.Add(1)
	}
	return err
}

// leg is one call of a concurrent fan-out.
type leg struct {
	to          actor.Ref
	method      string
	args, reply interface{}
}

// gather issues the legs concurrently from one turn and waits for all of
// them (fan-out, then fan-in), like awaiting a set of tasks together. It
// returns the first leg's error in leg order.
func (p *probes) gather(ctx *actor.Context, legs []leg) error {
	var t time.Time
	if p != nil {
		t = time.Now()
	}
	errs := make([]error, len(legs))
	var wg sync.WaitGroup
	for k := range legs {
		wg.Add(1)
		go func(l *leg, err *error) {
			defer wg.Done()
			if p == nil {
				*err = ctx.Call(l.to, l.method, l.args, l.reply)
			} else {
				*err = p.nestedCall(ctx, l.to, l.method, l.args, l.reply)
			}
		}(&legs[k], &errs[k])
	}
	wg.Wait()
	if p != nil {
		p.covered.Add(int64(time.Since(t)))
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tap wraps the transport.Transport handed to actor.Config: it counts
// messages and envelope bytes, times Send, and times the runtime's inbound
// Handler (installed through SetHandler).
type tap struct {
	transport.Transport
	msgs, bytes atomic.Int64
	send        spanStat
	deliver     spanStat
}

// envelopeBytes is the envelope's field content: payload, the string
// fields and the kind/id header. Framing and the optional trace record are
// not counted.
func envelopeBytes(env *transport.Envelope) int64 {
	return int64(9 + len(env.From) + len(env.ActorType) + len(env.ActorKey) +
		len(env.Method) + len(env.Payload) + len(env.Err))
}

func (t *tap) Send(to transport.NodeID, env *transport.Envelope) error {
	// Size first: TCP sends are asynchronous and the envelope belongs to
	// the writer once Send returns.
	n := envelopeBytes(env)
	start := time.Now()
	err := t.Transport.Send(to, env)
	t.send.add(time.Since(start))
	t.msgs.Add(1)
	t.bytes.Add(n)
	return err
}

func (t *tap) SetHandler(h transport.Handler) {
	t.Transport.SetHandler(func(env *transport.Envelope) {
		start := time.Now()
		h(env)
		t.deliver.add(time.Since(start))
	})
}
