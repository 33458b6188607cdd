package main

import (
	"repro/internal/op"
	"repro/internal/stream"
)

// opCosts prices the three operator kinds the workloads use, through
// their batch kernels on 256-tuple trains, outside any engine.
type opCosts struct {
	filter, mapper, tumble cost
}

func ledgerOp(in ledgerInput) (opCosts, error) {
	var c opCosts
	schema, err := stream.NewSchema("in", inSchemaFields...)
	if err != nil {
		return c, err
	}
	price := func(b boxDef) (cost, error) {
		o, err := op.Build(op.Spec{Kind: b.kind, Params: b.params})
		if err != nil {
			return cost{}, err
		}
		if _, err := o.Bind([]*stream.Schema{schema}); err != nil {
			return cost{}, err
		}
		// Emitted tuples may own pooled values; hand them back as the
		// engine would once a tuple dies, or the pool runs dry and the
		// kernel is charged for allocation it does not do in the engine.
		emit := func(_ int, t stream.Tuple) { t.Recycle() }
		return timeOps(in.budget, len(in.tuples), func(int) {
			for i := 0; i+256 <= len(in.tuples); i += 256 {
				op.ProcessAll(o, 0, in.tuples[i:i+256], emit)
			}
		}), nil
	}
	if c.filter, err = price(boxHeadFilter); err != nil {
		return c, err
	}
	if c.mapper, err = price(boxMapTriple); err != nil {
		return c, err
	}
	c.tumble, err = price(boxTumbleMaxT)
	return c, err
}
