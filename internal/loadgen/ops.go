package loadgen

import (
	"context"

	"hyrec/client"
	"hyrec/internal/core"
)

// Op is one logical operation issued through the typed client — the
// client-mode analogue of Target. i is the global request index, letting
// ops spread load deterministically over a user population.
type Op func(ctx context.Context, c *client.Client, i int) error

// RateOp issues single ratings for uids[i mod len(uids)] — the
// per-request baseline the batch path is measured against.
func RateOp(uids []uint32, items int) Op {
	return func(ctx context.Context, c *client.Client, i int) error {
		u := uids[i%len(uids)]
		return c.Rate(ctx, core.UserID(u), item(i, items), i%3 != 0)
	}
}

// RateBatchOp issues `size`-rating batches per request, spreading users
// and items the same way RateOp does — so a single- vs batch-path
// comparison moves the same rating volume per logical request… times
// size. Throughput is reported in requests; multiply by size for
// ratings/second.
func RateBatchOp(uids []uint32, items, size int) Op {
	return func(ctx context.Context, c *client.Client, i int) error {
		batch := make([]core.Rating, 0, size)
		for j := 0; j < size; j++ {
			n := i*size + j
			batch = append(batch, core.Rating{User: core.UserID(uids[n%len(uids)]), Item: item(n, items), Liked: n%3 != 0})
		}
		return c.RateBatch(ctx, batch)
	}
}

// JobOp requests a personalization job for uids[i mod len(uids)] — the
// /v1 equivalent of the Figure 8/9 /online load.
func JobOp(uids []uint32) Op {
	return func(ctx context.Context, c *client.Client, i int) error {
		_, err := c.Job(ctx, core.UserID(uids[i%len(uids)]))
		return err
	}
}

// UIDRange returns the uid slice [1, n] — a convenience for spreading
// ops over a synthetic population.
func UIDRange(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i + 1)
	}
	return out
}

func item(i, items int) core.ItemID {
	if items < 1 {
		items = 1
	}
	return core.ItemID(uint32(i*2654435761) % uint32(items))
}
