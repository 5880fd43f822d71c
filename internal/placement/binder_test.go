package placement

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/uid"
)

// TestShardBindersGetEverySetting: every per-shard binder is built with the
// whole of the placement binder's settings, whichever shard it binds on. The
// template sets every field, so a setting the copy dropped would show.
func TestShardBindersGetEverySetting(t *testing.T) {
	c := sim.NewCluster(transport.MemOptions{})
	ctx := context.Background()
	client := c.Add("c1")
	ns := core.NewNameServer(c.Add("ns"))
	place := NewClient(testShards, NewRing([]int{1, 2, 3}, 0))
	ids := []uid.UID{testUID(t, 1), testUID(t, 2), testUID(t, 3)}
	for i, info := range testShards {
		core.NewDB(c.Add(info.DB))
		for _, n := range info.Svs {
			c.Add(n)
		}
		for _, n := range info.Sts {
			c.Add(n)
		}
		place.remember(ids[i], info.ID)
		db := core.Client{RPC: client.Client(), DB: info.DB}
		if err := core.CreateObject(ctx, db, ids[i], "counter", []byte("0"), info.Svs, info.Sts); err != nil {
			t.Fatalf("create %v on shard %d: %v", ids[i], info.ID, err)
		}
		ns.Set(ids[i], info.Svs)
	}

	cfg := core.BindConfig{
		Actions:                action.NewManager("c1", action.NewMemLog()),
		ClientNode:             "c1",
		Scheme:                 core.SchemeNestedTopLevel,
		Policy:                 replica.SingleCopyPassive,
		Degree:                 2,
		ReadOnly:               true,
		UseWriteLockForExclude: true,
		FastBind:               true,
		NameServer:             &core.NSClient{RPC: client.Client(), Node: "ns"},
		LeaseHolder:            "c1",
		LeaseTTL:               time.Second,
		Ends:                   new(core.Ends),
	}
	v := reflect.ValueOf(cfg)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("template leaves %s zero; set every setting", v.Type().Field(i).Name)
		}
	}
	b := &Binder{BindConfig: cfg, Place: place, RPC: client.Client()}
	for _, id := range ids {
		act := cfg.Actions.BeginTop()
		if _, err := b.Bind(ctx, act, id); err != nil {
			t.Fatalf("bind %v: %v", id, err)
		}
		if _, err := act.Commit(ctx); err != nil {
			t.Fatalf("commit %v: %v", id, err)
		}
	}
	if len(b.sub) != len(testShards) {
		t.Fatalf("%d shard binders, want one per shard (%d)", len(b.sub), len(testShards))
	}
	for shard, sb := range b.sub {
		if !reflect.DeepEqual(sb.BindConfig, cfg) {
			t.Errorf("shard %d binder settings = %+v, want %+v", shard, sb.BindConfig, cfg)
		}
	}
}
