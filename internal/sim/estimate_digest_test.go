package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/workload"
)

// Estimate-digest oracle: for every named scenario at 4 cores and each of
// estimateDigestSeeds, the SHA-256 of every interval's GDP, GDP-O, ITCA and
// PTCA estimates followed by each core's private-mode reference CPL and
// average overlap at the run's sample points. The digests are constants, so
// any change to what the accountants or the reference dataflow unit compute
// fails this test. A change that is meant to move an estimate must edit the
// table by hand; one that is not (a faster dataflow unit, say) must leave it
// green.
var estimateDigestSeeds = []int64{1, 7}

// estimateDigest runs scenario name at seed with the four transparent
// accountants and hashes their estimates and the private references.
// Integers and float bits are encoded little-endian.
func estimateDigest(t *testing.T, name string, seed int64) string {
	t.Helper()
	opts := scenarioOptions(t, name, 4)
	opts.Seed = seed
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	for _, recs := range res.Intervals {
		for _, rec := range recs {
			buf = buf[:0]
			u64(uint64(rec.Core))
			u64(rec.StartInstructions)
			u64(rec.EndInstructions)
			names := make([]string, 0, len(rec.Estimates))
			for n := range rec.Estimates {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				e := rec.Estimates[n]
				buf = append(buf, n...)
				f64(e.PrivateCPI)
				f64(e.PrivateIPC)
				f64(e.SMSStallCycles)
				f64(e.PrivateLatency)
				u64(e.CPL)
				f64(e.AvgOverlap)
			}
			h.Write(buf)
		}
	}
	for core, bench := range opts.Workload.Benchmarks {
		priv, err := RunPrivate(opts.Config, bench, res.SamplePoints[core], CoreSeed(seed, core), 0)
		if err != nil {
			t.Fatal(err)
		}
		buf = buf[:0]
		for i := range priv.CPLAt {
			u64(priv.CPLAt[i])
			f64(priv.OverlapAt[i])
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestEstimateDigests(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range workload.ScenarioNames() {
		for _, seed := range estimateDigestSeeds {
			key := fmt.Sprintf("%s/%d", name, seed)
			seen[key] = true
			got := estimateDigest(t, name, seed)
			want, ok := wantEstimateDigests[key]
			if !ok {
				t.Errorf("no committed digest: %q: %q,", key, got)
				continue
			}
			if got != want {
				t.Errorf("%s: estimate digest %s, want %s", key, got, want)
			}
		}
	}
	for key := range wantEstimateDigests {
		if !seen[key] {
			t.Errorf("committed digest %s names no run", key)
		}
	}
}

var wantEstimateDigests = map[string]string{
	"bandwidth-bound/1": "155206b2ee2d0e50145b4a46fbee4401e6a1304110c24cd91924b83e0cebed80",
	"bandwidth-bound/7": "2aa1d87b674164b24ce0519e69c77be66bc020aeafb7ceb9fc136beea4478de1",
	"bursty/1":          "3e8a11c13a49e7e31267fb98a990d460563c41dd055b9eef5df6e639d0d11c97",
	"bursty/7":          "d752e4c3e944698ceea21c40da95f4fe6cb983483976db0f53c16bd79e2ae690",
	"cache-thrash/1":    "9c7eddb62592419899d070fb10ad4f155fcadcd6d940a3d8ab2661cee551eeaa",
	"cache-thrash/7":    "e4516150c388e054c24fd8c130b474305b2c3d04570f732856bd2fca11f5bfb0",
	"compute-heavy/1":   "193d32ff0bbffc96f9972f0862d39069baf99901e5aa75065b2c7f3a3d4caba5",
	"compute-heavy/7":   "c3e8156004d4abc28ae8e622d9163d38cb4147364e416e54b4d3420d1b19d837",
	"latency-bound/1":   "3a52f8b938362026bb74ff30ad0a493b92979aab79b38c73f005a54502697779",
	"latency-bound/7":   "ce730f2bf8b275d78a9360607e8d73de79ebc5efbc6a0d29159e179f088b92ba",
	"phased/1":          "cfbe6ba670d4a139573f3d97a9d71fb08a297b2ed1e1ce65e9e938d61687277e",
	"phased/7":          "c725f6189f7d0fe5357df28b3b7b94ca37ee8395d397df5acc006590c079d4e9",
	"pointer-chase/1":   "13418c5ab2a49d88bdeeb81d4915c0bbe97c6d625f063694cc408121219e0af0",
	"pointer-chase/7":   "4ad78b3406215d01e4e38fcca9e4819532dc02553c6047de45c2c55fb4c43ecd",
	"streaming/1":       "019a60228b026a4b4bf990b7301f3031e6d49fc4c9a45f8b6d1d698de41caae3",
	"streaming/7":       "9be40d1c8f49f9df4e27cf7a3eebba02efa89e458c177456c1aa4de95d63ba71",
}
