package difftest

import (
	"fmt"
	"math/rand"
	"strings"
)

// The generator draws from a closed grammar: single-table aggregations
// over lineitem and flights, lineitem-orders joins, and key-ordered
// top-n selections. Every query is deterministic given the rng, and any
// ORDER BY ... LIMIT ends in a total order (a unique key as tiebreaker)
// so the cut is the same no matter which worker produced each row.

type colDef struct {
	name string
	kind byte // 'i' int, 'r' real, 's' string
}

var lineitemGroupCols = []colDef{
	{"l_returnflag", 's'}, {"l_linestatus", 's'}, {"l_shipmode", 's'},
	{"l_linenumber", 'i'}, {"l_shipinstruct", 's'},
}

var lineitemAggCols = []colDef{
	{"l_quantity", 'i'}, {"l_extendedprice", 'r'}, {"l_discount", 'r'},
	{"l_tax", 'r'}, {"l_suppkey", 'i'}, {"l_shipmode", 's'},
	{"l_returnflag", 's'}, {"l_comment", 's'},
}

var flightsGroupCols = []colDef{
	{"Carrier", 's'}, {"Origin", 's'}, {"Dest", 's'},
}

var flightsAggCols = []colDef{
	{"DepDelay", 'i'}, {"ArrDelay", 'i'}, {"Distance", 'i'},
	{"TailNum", 's'}, {"Dest", 's'},
}

var joinGroupCols = []colDef{
	{"o_orderpriority", 's'}, {"o_orderstatus", 's'},
	{"l_returnflag", 's'}, {"l_linestatus", 's'},
}

var joinAggCols = []colDef{
	{"l_quantity", 'i'}, {"l_extendedprice", 'r'}, {"o_totalprice", 'r'},
	{"o_shippriority", 'i'}, {"l_shipmode", 's'},
}

var shipmodes = []string{"AIR", "RAIL", "MAIL", "SHIP", "TRUCK", "FOB", "REG AIR"}
var returnflags = []string{"A", "N", "R"}
var flightCarriers = []string{"AA", "DL", "UA", "WN", "B6"}
var flightAirports = []string{"ATL", "LAX", "ORD", "DFW", "DEN", "JFK"}

// randomQuery draws one SQL statement.
func randomQuery(rng *rand.Rand) string {
	switch rng.Intn(10) {
	case 0, 1, 2, 3: // lineitem aggregation
		return groupQuery(rng, "lineitem", lineitemGroupCols, lineitemAggCols, lineitemWhere)
	case 4, 5: // flights aggregation
		return groupQuery(rng, "flights", flightsGroupCols, flightsAggCols, flightsWhere)
	case 6, 7, 8: // lineitem x orders join
		return joinQuery(rng)
	default: // key-ordered top-n selection
		return topNSelect(rng)
	}
}

// aggExpr draws one aggregate over the column pool; string columns only
// take MIN/MAX/COUNTD.
func aggExpr(rng *rand.Rand, cols []colDef, alias string) string {
	c := cols[rng.Intn(len(cols))]
	var fns []string
	if c.kind == 's' {
		fns = []string{"MIN", "MAX", "COUNTD"}
	} else {
		fns = []string{"SUM", "AVG", "MIN", "MAX", "COUNTD", "MEDIAN"}
	}
	fn := fns[rng.Intn(len(fns))]
	return fmt.Sprintf("%s(%s) AS %s", fn, c.name, alias)
}

func lineitemWhere(rng *rand.Rand) string {
	switch rng.Intn(5) {
	case 0:
		return fmt.Sprintf("l_quantity > %d", 1+rng.Intn(45))
	case 1:
		return fmt.Sprintf("l_discount < %.2f", 0.01+0.01*float64(rng.Intn(9)))
	case 2:
		return fmt.Sprintf("l_shipdate >= DATE '%d-01-01'", 1993+rng.Intn(5))
	case 3:
		return fmt.Sprintf("l_shipmode = '%s'", shipmodes[rng.Intn(len(shipmodes))])
	default:
		return fmt.Sprintf("l_returnflag = '%s'", returnflags[rng.Intn(len(returnflags))])
	}
}

func flightsWhere(rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("Distance > %d", 200+100*rng.Intn(20))
	case 1:
		return fmt.Sprintf("ArrDelay > %d", rng.Intn(60))
	case 2:
		return fmt.Sprintf("Carrier = '%s'", flightCarriers[rng.Intn(len(flightCarriers))])
	default:
		return fmt.Sprintf("Origin = '%s'", flightAirports[rng.Intn(len(flightAirports))])
	}
}

// joinWhere draws a WHERE clause across the join planner's filter
// move-around boundary: single-input conjuncts (moved below the join), an
// AND of a lineitem and an orders conjunct (split between the inputs),
// cross-input comparisons and ORs (kept above the join), and, under LEFT
// JOIN, orders predicates including IS NULL, which must stay above the
// join because the NULL-extended rows have to see them.
func joinWhere(rng *rand.Rand, left bool) string {
	switch rng.Intn(6) {
	case 0:
		return lineitemConjunct(rng)
	case 1:
		return ordersConjunct(rng, left)
	case 2:
		return lineitemConjunct(rng) + " AND " + ordersConjunct(rng, left)
	case 3:
		if rng.Intn(2) == 0 {
			return "l_shipdate > o_orderdate"
		}
		return fmt.Sprintf("l_extendedprice * %d > o_totalprice", 2+rng.Intn(19))
	case 4:
		return fmt.Sprintf("(%s OR %s)", lineitemConjunct(rng), ordersConjunct(rng, left))
	default:
		return ordersConjunct(rng, left) + " AND l_shipdate > o_orderdate"
	}
}

func lineitemConjunct(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return fmt.Sprintf("l_quantity > %d", 1+rng.Intn(45))
	}
	return fmt.Sprintf("l_shipdate >= DATE '%d-01-01'", 1993+rng.Intn(5))
}

// ordersConjunct draws a predicate over orders alone; NULL tests only
// under LEFT JOIN, where unmatched rows read NULL orders columns.
func ordersConjunct(rng *rand.Rand, left bool) string {
	n := 3
	if left {
		n = 6
	}
	switch rng.Intn(n) {
	case 0:
		return fmt.Sprintf("o_totalprice > %d", 10000+1000*rng.Intn(100))
	case 1:
		return fmt.Sprintf("o_orderstatus = '%s'", []string{"F", "O", "P"}[rng.Intn(3)])
	case 2:
		return fmt.Sprintf("o_orderdate < DATE '%d-07-01'", 1992+rng.Intn(7))
	case 3:
		return "o_totalprice IS NULL"
	case 4:
		return "o_orderpriority IS NULL"
	default:
		return "o_orderdate IS NOT NULL"
	}
}

// groupQuery: [keys,] aggs FROM table [WHERE ...] [GROUP BY keys]
// [ORDER BY agg, keys LIMIT n].
func groupQuery(rng *rand.Rand, table string, groupCols, aggCols []colDef,
	where func(*rand.Rand) string) string {
	keys := pickCols(rng, groupCols, rng.Intn(3)) // 0..2 keys
	var items []string
	for _, k := range keys {
		items = append(items, k)
	}
	nAggs := 1 + rng.Intn(3)
	var aggAliases []string
	for i := 0; i < nAggs; i++ {
		alias := fmt.Sprintf("a%d", i)
		items = append(items, aggExpr(rng, aggCols, alias))
		aggAliases = append(aggAliases, alias)
	}
	if rng.Intn(3) == 0 {
		items = append(items, "COUNT(*) AS cnt")
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT %s FROM %s", strings.Join(items, ", "), table)
	if rng.Intn(3) > 0 {
		fmt.Fprintf(&sb, " WHERE %s", where(rng))
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&sb, " AND %s", where(rng))
		}
	}
	if len(keys) > 0 {
		fmt.Fprintf(&sb, " GROUP BY %s", strings.Join(keys, ", "))
		if rng.Intn(4) == 0 { // grouped top-n: order by an aggregate, keys break ties
			order := append([]string{aggAliases[0] + " DESC"}, keys...)
			fmt.Fprintf(&sb, " ORDER BY %s LIMIT %d", strings.Join(order, ", "), 1+rng.Intn(10))
		}
	}
	return sb.String()
}

func joinQuery(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		return wideJoinQuery(rng)
	}
	keys := pickCols(rng, joinGroupCols, 1+rng.Intn(2))
	items := append([]string{}, keys...)
	nAggs := 1 + rng.Intn(2)
	for i := 0; i < nAggs; i++ {
		items = append(items, aggExpr(rng, joinAggCols, fmt.Sprintf("a%d", i)))
	}
	items = append(items, "COUNT(*) AS cnt")
	left := rng.Intn(3) == 0
	join := "JOIN"
	if left {
		join = "LEFT JOIN"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT %s FROM lineitem %s orders ON l_orderkey = o_orderkey",
		strings.Join(items, ", "), join)
	if rng.Intn(4) < 2 || left && rng.Intn(2) == 0 {
		fmt.Fprintf(&sb, " WHERE %s", joinWhere(rng, left))
	}
	fmt.Fprintf(&sb, " GROUP BY %s", strings.Join(keys, ", "))
	return sb.String()
}

// wideJoinQuery groups the join by o_comment, a near-unique orders
// column, with no filter. The join reads only the columns a query names,
// so narrow join shapes no longer outgrow the spill sweep's 1 MiB budget;
// this one's grouping state still does, at every worker count.
func wideJoinQuery(rng *rand.Rand) string {
	return fmt.Sprintf("SELECT o_comment, %s, COUNT(*) AS cnt FROM lineitem JOIN orders "+
		"ON l_orderkey = o_orderkey GROUP BY o_comment", aggExpr(rng, joinAggCols, "a0"))
}

// topNSelect is a plain selection ordered by lineitem's unique key
// (l_orderkey, l_linenumber), so the LIMIT cut is deterministic under any
// block routing.
func topNSelect(rng *rand.Rand) string {
	extra := lineitemAggCols[rng.Intn(len(lineitemAggCols))].name
	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT l_orderkey, l_linenumber, %s FROM lineitem", extra)
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&sb, " WHERE %s", lineitemWhere(rng))
	}
	desc := ""
	if rng.Intn(2) == 0 {
		desc = " DESC"
	}
	fmt.Fprintf(&sb, " ORDER BY l_orderkey%s, l_linenumber%s LIMIT %d",
		desc, desc, 10+rng.Intn(200))
	return sb.String()
}

// pickCols draws n distinct column names (order preserved).
func pickCols(rng *rand.Rand, cols []colDef, n int) []string {
	if n > len(cols) {
		n = len(cols)
	}
	idx := rng.Perm(len(cols))[:n]
	sortInts(idx)
	out := make([]string, n)
	for i, j := range idx {
		out[i] = cols[j].name
	}
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
