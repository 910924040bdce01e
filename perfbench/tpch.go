package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"tde"
	"tde/internal/tpch"
)

// tpchOLAP is the analytic workload: TPC-H SF 0.1 lineitem, orders and
// customer, two closed-loop clients running a mix of query shapes with
// automatic plans, and a decode cache smaller than the decoded working
// set. Decode, scan, aggregation, join, sort and the planner's choices
// do almost all the work; neither the serve layer nor the write path
// runs.
type tpchOLAP struct {
	seed    int64
	x       *extract
	gov     *tde.Governor
	classes [][]query
}

const (
	tpchScale    = 0.1
	tpchClients  = 2
	tpchCacheMiB = 16
	tpchPerClass = 3
)

var (
	lineitemKinds = []string{"int", "int", "int", "int", "int", "real", "real", "real",
		"str", "str", "date", "date", "date", "str", "str", "str"}
	ordersSchema = []string{"o_orderkey:int", "o_custkey:int", "o_orderstatus:str",
		"o_totalprice:real", "o_orderdate:date", "o_orderpriority:str",
		"o_clerk:str", "o_shippriority:int", "o_comment:str"}
	customerSchema = []string{"c_custkey:int", "c_name:str", "c_address:str",
		"c_nationkey:int", "c_phone:str", "c_acctbal:real",
		"c_mktsegment:str", "c_comment:str"}
	shipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
)

// The columns the query mix reads, for the decoded working set.
var (
	tpchLineitemCols = []string{"l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice",
		"l_discount", "l_returnflag", "l_linestatus", "l_shipdate", "l_shipmode"}
	tpchOrdersCols = []string{"o_orderkey", "o_orderdate", "o_orderpriority", "o_totalprice"}
)

func (w *tpchOLAP) setup(ctx context.Context, cfg config, tr *tracer) (*extract, error) {
	w.seed = cfg.seed
	g := tpch.New(tpchScale, cfg.seed)
	var li, ord, cust bytes.Buffer
	if err := g.WriteLineitem(&li); err != nil {
		return nil, err
	}
	if err := g.WriteOrders(&ord); err != nil {
		return nil, err
	}
	if err := g.WriteCustomer(&cust); err != nil {
		return nil, err
	}
	schema := make([]string, len(tpch.LineitemSchema))
	for i, n := range tpch.LineitemSchema {
		schema[i] = n + ":" + lineitemKinds[i]
	}
	x, err := buildExtract(tr, cfg.dir, "tpch", []csvTable{
		{name: "lineitem", data: li.Bytes(), schema: schema},
		{name: "orders", data: ord.Bytes(), schema: ordersSchema},
		{name: "customer", data: cust.Bytes(), schema: customerSchema},
	})
	if err != nil {
		return nil, err
	}
	w.x = x
	li, ord, cust = bytes.Buffer{}, bytes.Buffer{}, bytes.Buffer{}
	settle()

	w.classes = tpchClasses(rand.New(rand.NewSource(cfg.seed)))
	for _, cl := range w.classes {
		if err := withOracle(ctx, x.db, cl); err != nil {
			return nil, err
		}
	}
	ws := int64(0)
	for table, cols := range map[string][]string{"lineitem": tpchLineitemCols, "orders": tpchOrdersCols} {
		n, err := decodedBytes(x.db, table, cols)
		if err != nil {
			return nil, err
		}
		ws += n
	}
	w.gov = tde.NewGovernor(tde.GovernorConfig{CacheBytes: tpchCacheMiB << 20})
	fmt.Printf("tpch-olap: lineitem %d, orders %d, customer %d rows; decoded working set %.1f MiB vs decode cache %d MiB; closed loop, %d clients, %d classes x %d instances\n",
		x.db.Rows("lineitem"), x.db.Rows("orders"), x.db.Rows("customer"),
		float64(ws)/(1<<20), tpchCacheMiB, tpchClients, len(w.classes), tpchPerClass)
	if err := tr.calibrate(ctx, x.db, "SELECT COUNT(*) FROM customer"); err != nil {
		return nil, err
	}
	r := &reader{db: x.db, qopt: tde.QueryOptions{Governor: w.gov}, classes: w.classes}
	if err := r.warm(ctx); err != nil {
		return nil, err
	}
	settle()
	return x, nil
}

// tpchClasses builds the query mix, tpchPerClass seeded instances per
// class.
func tpchClasses(rng *rand.Rand) [][]query {
	day := func(t time.Time) string { return t.Format("2006-01-02") }
	gen := []func() query{
		func() query {
			cut := time.Date(1998, 12, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, -60-rng.Intn(61))
			return query{class: "q1-composite", ordered: true, sql: fmt.Sprintf(
				`SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), AVG(l_discount), COUNT(*)
				 FROM lineitem WHERE l_shipdate <= DATE '%s'
				 GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`, day(cut))}
		},
		func() query {
			col := []string{"l_quantity", "l_discount", "l_extendedprice"}[rng.Intn(3)]
			return query{class: "shipmode-group", ordered: true, sql: fmt.Sprintf(
				`SELECT l_shipmode, COUNT(*), SUM(%s) FROM lineitem GROUP BY l_shipmode ORDER BY l_shipmode`, col)}
		},
		func() query {
			y := 1993 + rng.Intn(5)
			disc := 2 + rng.Intn(8)
			return query{class: "q6-filter-sum", sql: fmt.Sprintf(
				`SELECT SUM(l_extendedprice * l_discount) FROM lineitem
				 WHERE l_shipdate >= DATE '%d-01-01' AND l_shipdate < DATE '%d-01-01'
				 AND l_discount BETWEEN 0.%02d AND 0.%02d AND l_quantity < %d`,
				y, y+1, disc-1, disc+1, 24+rng.Intn(2))}
		},
		func() query {
			return query{class: "dict-count", sql: fmt.Sprintf(
				`SELECT COUNT(*) FROM lineitem WHERE l_shipmode = '%s'`, shipModes[rng.Intn(len(shipModes))])}
		},
		func() query {
			lo := 1 + rng.Intn(590000)
			return query{class: "orderkey-range", sql: fmt.Sprintf(
				`SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice FROM lineitem
				 WHERE l_orderkey >= %d AND l_orderkey < %d`, lo, lo+2000)}
		},
		func() query {
			q := time.Date(1992+rng.Intn(7), time.Month(1+3*rng.Intn(4)), 1, 0, 0, 0, 0, time.UTC)
			return query{class: "join-quarter", ordered: true, sql: fmt.Sprintf(
				`SELECT o_orderpriority, COUNT(*), SUM(l_extendedprice)
				 FROM lineitem JOIN orders ON l_orderkey = o_orderkey
				 WHERE o_orderdate >= DATE '%s' AND o_orderdate < DATE '%s'
				 GROUP BY o_orderpriority ORDER BY o_orderpriority`, day(q), day(q.AddDate(0, 3, 0)))}
		},
		func() query {
			return query{class: "topn", ordered: true, sql: fmt.Sprintf(
				`SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem WHERE l_shipmode = '%s'
				 ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT 10`,
				shipModes[rng.Intn(len(shipModes))])}
		},
		func() query {
			from := time.Date(1992+rng.Intn(6), time.Month(1+rng.Intn(12)), 1, 0, 0, 0, 0, time.UTC)
			return query{class: "orders-band", ordered: true, sql: fmt.Sprintf(
				`SELECT o_orderpriority, COUNT(*), SUM(o_totalprice) FROM orders
				 WHERE o_orderdate >= DATE '%s' AND o_orderdate < DATE '%s'
				 GROUP BY o_orderpriority ORDER BY o_orderpriority`, day(from), day(from.AddDate(1, 0, 0)))}
		},
	}
	classes := make([][]query, len(gen))
	for i, g := range gen {
		for k := 0; k < tpchPerClass; k++ {
			q := g()
			q.sql = strings.Join(strings.Fields(q.sql), " ")
			classes[i] = append(classes[i], q)
		}
	}
	return classes
}

// tpchDeck runs the Q6 shape twice per round of the eight classes: with
// an even number of equally weighted classes the median read would fall
// in the gap between the fourth and fifth fastest class, and jump
// between them from run to run.
var tpchDeck = []int{0, 1, 2, 2, 3, 4, 5, 6, 7}

func (w *tpchOLAP) phase(ctx context.Context, d time.Duration, minReads int, tr *tracer,
	acc *layerAcc) (*phaseResult, error) {
	r := &reader{db: w.x.db, qopt: tde.QueryOptions{Governor: w.gov}, classes: w.classes, deck: tpchDeck,
		tr: tr, acc: acc}
	before := w.gov.Stats().Cache
	ph, err := closedLoop(ctx, w.seed, tpchClients, d, minReads, r)
	after := w.gov.Stats().Cache
	if ph != nil {
		fmt.Printf("tpch-olap: decode cache hits %d misses %d evictions %d\n",
			after.Hits-before.Hits, after.Misses-before.Misses, after.Evictions-before.Evictions)
	}
	return ph, err
}

func (w *tpchOLAP) probe(ctx context.Context, tr *tracer, acc *layerAcc) error {
	tables, err := readTables(w.x.path)
	if err != nil {
		return err
	}
	probeDecode(tr, tables, acc)
	if err := probeParseBuild(tr, w.classes, tables, acc); err != nil {
		return err
	}
	return probeRegret(ctx, tr, w.x.db, tde.QueryOptions{Governor: w.gov}, w.classes, acc)
}

func (w *tpchOLAP) finish(ctx context.Context) error {
	return w.x.db.Close()
}
