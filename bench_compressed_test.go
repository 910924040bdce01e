package tde

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"tde/internal/plan"
)

// Compressed-execution benchmarks on a Flights-style table: a sorted
// small-domain column (month — run-length encoded at import), a
// dictionary-compressed small-domain column (carrier), a plain real
// payload (delay) and two small-domain string columns (origin, status). Each benchmark runs the same query with encoded
// execution forced on and forced off, so the speedup of the encoded
// routines is directly visible in the Compressed*/encoded vs /decoded
// pairs guarded by BENCH_compressed.json.

const benchCompressedRows = 1 << 20

var benchOrigins = []string{"ATL", "LAX", "ORD", "DFW", "DEN", "JFK", "SFO", "SEA", "LAS", "MCO"}

var (
	benchCompressedOnce sync.Once
	benchCompressedDB   *Database
	benchCompressedErr  error
)

func compressedBenchDB(b *testing.B) *Database {
	benchCompressedOnce.Do(func() {
		db := New()
		var sb strings.Builder
		sb.Grow(benchCompressedRows * 20)
		for i := 0; i < benchCompressedRows; i++ {
			// month is sorted (long runs), carrier is a small random-ish
			// domain, delay is a plain payload, origin and status are
			// small random-ish string domains.
			fmt.Fprintf(&sb, "%d,%d,%d.%02d,%s,%s\n",
				1+i*12/benchCompressedRows, (i*2654435761)%14, i%120-30, i%100,
				benchOrigins[(i*40503)%len(benchOrigins)], []string{"ON", "LATE", "X"}[(i*7)%3])
		}
		opt := DefaultImportOptions()
		opt.Schema = []string{"month:int", "carrier:int", "delay:real", "origin:str", "status:str"}
		opt.HeaderSet, opt.HasHeader = true, false
		if err := db.ImportCSV("fb", []byte(sb.String()), opt); err != nil {
			benchCompressedErr = err
			return
		}
		if err := db.CompressColumn("fb", "carrier"); err != nil {
			benchCompressedErr = err
			return
		}
		benchCompressedDB = db
	})
	if benchCompressedErr != nil {
		b.Fatal(benchCompressedErr)
	}
	return benchCompressedDB
}

func benchCompressedQuery(b *testing.B, sql string) {
	db := compressedBenchDB(b)
	for _, arm := range []struct {
		name string
		enc  int
	}{
		{"encoded", plan.ForceEncodedExec},
		{"decoded", plan.EncodedOff},
	} {
		b.Run(arm.name, func(b *testing.B) {
			opt := plan.Options{
				ParallelWorkers: -1, NoDictPlan: true, NoIndexPlan: true,
				EncodedExec: arm.enc,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.QueryWithOptions(sql, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// rle-sum: fold SUM/COUNT run-at-a-time over the RLE month column.
func BenchmarkCompressedRLESum(b *testing.B) {
	benchCompressedQuery(b, "SELECT SUM(month), COUNT(month) FROM fb")
}

// dict-filter: evaluate the predicate once per dictionary token instead
// of once per row.
func BenchmarkCompressedDictFilter(b *testing.B) {
	benchCompressedQuery(b, "SELECT SUM(delay) FROM fb WHERE carrier = 7")
}

// token-direct: group by dictionary token via a dense array, no hashing.
func BenchmarkCompressedTokenGroup(b *testing.B) {
	benchCompressedQuery(b, "SELECT carrier, COUNT(*), SUM(delay) FROM fb GROUP BY carrier")
}

// token-direct over two string keys: each row's strings map to dense ids
// through the per-source-token memo and index one composite slot.
func BenchmarkCompressedStringGroup(b *testing.B) {
	benchCompressedQuery(b, "SELECT origin, status, COUNT(*), SUM(delay) FROM fb GROUP BY origin, status")
}
