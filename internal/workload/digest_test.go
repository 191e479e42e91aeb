package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"
)

// Stream-digest oracle: the SHA-256 of the first digestInstructions
// instructions of every suite benchmark and every scenario slot (at
// digestCores cores), for each of digestSeeds. The digests are constants, so
// any change to the instruction stream — the generator, a profile, the seed
// mapping — fails this test. A change that is meant to move the stream must
// edit the table by hand; one that is not (a faster generator, say) must
// leave it green.
const (
	digestInstructions = 4096
	digestCores        = 4
)

var digestSeeds = []int64{1, 7, 97}

// streamDigest hashes the first n instructions of b's stream for seed. Each
// instruction is encoded field by field, little-endian: Kind (1 byte), Addr
// (8), Dep1 (4), Dep2 (4), Mispredicted (1).
func streamDigest(b Benchmark, seed int64, n int) (string, error) {
	gen, err := b.NewGenerator(seed)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	buf := make([]byte, 0, 18)
	for i := 0; i < n; i++ {
		inst := gen.Next()
		buf = append(buf[:0], byte(inst.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, inst.Addr)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(inst.Dep1))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(inst.Dep2))
		mis := byte(0)
		if inst.Mispredicted {
			mis = 1
		}
		buf = append(buf, mis)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// digestStreams lists every stream the oracle covers: the 52 suite
// benchmarks and each scenario's slots at digestCores cores.
func digestStreams(t *testing.T) []Benchmark {
	streams := Suite()
	for _, sc := range Scenarios() {
		wl, err := sc.Workload(digestCores)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, wl.Benchmarks...)
	}
	return streams
}

func TestStreamDigests(t *testing.T) {
	seen := map[string]bool{}
	var missing []string
	for _, b := range digestStreams(t) {
		for _, seed := range digestSeeds {
			key := fmt.Sprintf("%s/%d", b.Name, seed)
			seen[key] = true
			got, err := streamDigest(b, seed, digestInstructions)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			want, ok := wantStreamDigests[key]
			if !ok {
				missing = append(missing, fmt.Sprintf("%q: %q,", key, got))
				continue
			}
			if got != want {
				t.Errorf("%s: stream digest %s, want %s", key, got, want)
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d streams have no committed digest:", len(missing))
		for _, line := range missing {
			t.Log(line)
		}
	}
	var stale []string
	for key := range wantStreamDigests {
		if !seen[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("committed digest %s names no stream", key)
	}
}

var wantStreamDigests = map[string]string{
	"apsi/1":               "30c1b7b20eed648980500f259f9b1b3d5379cca0e969771ff0eaf07482e34ee5",
	"apsi/7":               "828e384bb043778e6beff00f26621676956579a500f62371ac97a1370c96640c",
	"apsi/97":              "a3bad379eb17f9608a8afd72e700d371855dc03bc509a9f15d7f5af509190230",
	"facerec/1":            "94f1b328274389e06e85c42e1a077cb9d740a5965f4b5bfcd982840a47d0c7d7",
	"facerec/7":            "df5353bc887dd2120dc3b9828f3146e5e6a0da0c375faa6f38de4f6d0221ce78",
	"facerec/97":           "cfb28bc872b5e2fc9f5a5d716373664fabd313527f504d1c2efb1f6ea62a4135",
	"galgel/1":             "1461f152aa523f57daa80990ee51e92aa3f0f77a4e38364e551a8464da30830f",
	"galgel/7":             "b8a8f7fc04a8903d74d02f0747a2f3c1aaacf0cebcb952d26cea06ed57815f25",
	"galgel/97":            "685bc3376f51d82fd8d0fd505e9f58ac5a69f26f5053e0292ce23894f9921d98",
	"ammp/1":               "ddad85f50257b486973e89efe94b3edeff7748090dbd563b6bdb739f87acb3e5",
	"ammp/7":               "c48448d57a1881cb6b3b08b1d7d9ba186a99897d5bd94cc4607fae82b3a1fa74",
	"ammp/97":              "08e56e05f5ddf96199b65913e1a95c0a550f875a50872848bc8f9628755207de",
	"art/1":                "30c1b7b20eed648980500f259f9b1b3d5379cca0e969771ff0eaf07482e34ee5",
	"art/7":                "828e384bb043778e6beff00f26621676956579a500f62371ac97a1370c96640c",
	"art/97":               "a3bad379eb17f9608a8afd72e700d371855dc03bc509a9f15d7f5af509190230",
	"omnetpp/1":            "a70d728138892958af41518076294def98dbf35b80433690cbba4f41353efbe8",
	"omnetpp/7":            "c227d861de9cbdfcb1f86715e5c5c401dd88ff8291cf9a9073fbb3a0782393b0",
	"omnetpp/97":           "ff39fff368c3ef99b11598a3925d7e2b1ed9ba9adcca7db02846bde3e334a222",
	"lbm/1":                "6d355e6b8b76854782f0cbb735876e29b1a18a72d28f2a20ad7f878f4d92fefd",
	"lbm/7":                "130f903c53d5ed32a763a775003f86b4c614e3aa1632913d300b77094511d990",
	"lbm/97":               "f03fd59fadcf0ad1dd5807e5a7afde7e86a9596c95a3b71c9cde87c0bc9461d1",
	"sphinx3/1":            "ddad85f50257b486973e89efe94b3edeff7748090dbd563b6bdb739f87acb3e5",
	"sphinx3/7":            "c48448d57a1881cb6b3b08b1d7d9ba186a99897d5bd94cc4607fae82b3a1fa74",
	"sphinx3/97":           "08e56e05f5ddf96199b65913e1a95c0a550f875a50872848bc8f9628755207de",
	"equake/1":             "3c52f0e008144fa848ca66f736d9db79396ef194b1f09147a1ca112bf0fdf41c",
	"equake/7":             "d858b6393d1c1cfc224949ee1d5cffef1bbbe46af820a5cadf206a04d7d714fd",
	"equake/97":            "3c93cc90a25c64ed34896dd44cd15906a96f85becabae8fef1a4cd15ac4e8ce7",
	"twolf/1":              "83a6bd1139891e2f4e6ee8b0c597967e81811e2ea62b44861fa92c739e1bc380",
	"twolf/7":              "66076a2f4b884e6fa60695969811c26dfd197b57aca1bbf98fdc6108b16c8308",
	"twolf/97":             "dc71f0379d781b341cfb9e99db9e83247fde009baab06478d230d8500c8806c2",
	"parser/1":             "4b30b6106b93d3b5a4cea2cb5f61d3a8f7fcad018cfee267e0c2119f6985fbd1",
	"parser/7":             "1e99a9aac16926efb58840d8a362219e8fc84b4ee0df6ada30add611fdce6b58",
	"parser/97":            "f8614c87235e07b298acc7559dfde9159505667dd15e1827a6becdecdc597fe8",
	"vpr/1":                "3c52f0e008144fa848ca66f736d9db79396ef194b1f09147a1ca112bf0fdf41c",
	"vpr/7":                "d858b6393d1c1cfc224949ee1d5cffef1bbbe46af820a5cadf206a04d7d714fd",
	"vpr/97":               "3c93cc90a25c64ed34896dd44cd15906a96f85becabae8fef1a4cd15ac4e8ce7",
	"gromacs/1":            "83a6bd1139891e2f4e6ee8b0c597967e81811e2ea62b44861fa92c739e1bc380",
	"gromacs/7":            "66076a2f4b884e6fa60695969811c26dfd197b57aca1bbf98fdc6108b16c8308",
	"gromacs/97":           "dc71f0379d781b341cfb9e99db9e83247fde009baab06478d230d8500c8806c2",
	"astar/1":              "4b30b6106b93d3b5a4cea2cb5f61d3a8f7fcad018cfee267e0c2119f6985fbd1",
	"astar/7":              "1e99a9aac16926efb58840d8a362219e8fc84b4ee0df6ada30add611fdce6b58",
	"astar/97":             "f8614c87235e07b298acc7559dfde9159505667dd15e1827a6becdecdc597fe8",
	"bzip2/1":              "3c52f0e008144fa848ca66f736d9db79396ef194b1f09147a1ca112bf0fdf41c",
	"bzip2/7":              "d858b6393d1c1cfc224949ee1d5cffef1bbbe46af820a5cadf206a04d7d714fd",
	"bzip2/97":             "3c93cc90a25c64ed34896dd44cd15906a96f85becabae8fef1a4cd15ac4e8ce7",
	"hmmer/1":              "83a6bd1139891e2f4e6ee8b0c597967e81811e2ea62b44861fa92c739e1bc380",
	"hmmer/7":              "66076a2f4b884e6fa60695969811c26dfd197b57aca1bbf98fdc6108b16c8308",
	"hmmer/97":             "dc71f0379d781b341cfb9e99db9e83247fde009baab06478d230d8500c8806c2",
	"gzip/1":               "1396dbf3cba9e36f0bc139e4ef8f04936d0c679be20aa8a0bb1dfbb699856d63",
	"gzip/7":               "459c6809e6db5a0f34224c7d4533b639413ac2f7ff811e978072de0af66a4cd6",
	"gzip/97":              "e36f4f2469c058d4f662b8288ef90c67eab650b98f2fd344111bdde2ab048ed3",
	"wupwise/1":            "5e6f508f892194fa5d93bba2328df83332f5d1d171739548c2ad7da54dd3fd02",
	"wupwise/7":            "d95b51d3b2f1966e7f405ff1dd532e3f6911ba4c44b7f091efe33519e1cdb937",
	"wupwise/97":           "4f2d130f7232d83553f9fa1506c0bb5ab718e298f135d82b8eb3e4eec20731e3",
	"swim/1":               "1396dbf3cba9e36f0bc139e4ef8f04936d0c679be20aa8a0bb1dfbb699856d63",
	"swim/7":               "459c6809e6db5a0f34224c7d4533b639413ac2f7ff811e978072de0af66a4cd6",
	"swim/97":              "e36f4f2469c058d4f662b8288ef90c67eab650b98f2fd344111bdde2ab048ed3",
	"mgrid/1":              "5e6f508f892194fa5d93bba2328df83332f5d1d171739548c2ad7da54dd3fd02",
	"mgrid/7":              "d95b51d3b2f1966e7f405ff1dd532e3f6911ba4c44b7f091efe33519e1cdb937",
	"mgrid/97":             "4f2d130f7232d83553f9fa1506c0bb5ab718e298f135d82b8eb3e4eec20731e3",
	"applu/1":              "632aeaeeb1c96c4e8a757e76db87e327c66485a5dd5acff7cc984cbeafdc522d",
	"applu/7":              "2c49d89614309806ce82177ff3dccb5cdabd657729a2121adf7458166c50f60d",
	"applu/97":             "d8f4288b304db0d29198ab490ba377e762eb3a49e5d963a4508c116c32c9a7ca",
	"vortex/1":             "5e6f508f892194fa5d93bba2328df83332f5d1d171739548c2ad7da54dd3fd02",
	"vortex/7":             "d95b51d3b2f1966e7f405ff1dd532e3f6911ba4c44b7f091efe33519e1cdb937",
	"vortex/97":            "4f2d130f7232d83553f9fa1506c0bb5ab718e298f135d82b8eb3e4eec20731e3",
	"gcc2000/1":            "1396dbf3cba9e36f0bc139e4ef8f04936d0c679be20aa8a0bb1dfbb699856d63",
	"gcc2000/7":            "459c6809e6db5a0f34224c7d4533b639413ac2f7ff811e978072de0af66a4cd6",
	"gcc2000/97":           "e36f4f2469c058d4f662b8288ef90c67eab650b98f2fd344111bdde2ab048ed3",
	"mesa/1":               "5e6f508f892194fa5d93bba2328df83332f5d1d171739548c2ad7da54dd3fd02",
	"mesa/7":               "d95b51d3b2f1966e7f405ff1dd532e3f6911ba4c44b7f091efe33519e1cdb937",
	"mesa/97":              "4f2d130f7232d83553f9fa1506c0bb5ab718e298f135d82b8eb3e4eec20731e3",
	"crafty/1":             "1396dbf3cba9e36f0bc139e4ef8f04936d0c679be20aa8a0bb1dfbb699856d63",
	"crafty/7":             "459c6809e6db5a0f34224c7d4533b639413ac2f7ff811e978072de0af66a4cd6",
	"crafty/97":            "e36f4f2469c058d4f662b8288ef90c67eab650b98f2fd344111bdde2ab048ed3",
	"fma3d/1":              "5e6f508f892194fa5d93bba2328df83332f5d1d171739548c2ad7da54dd3fd02",
	"fma3d/7":              "d95b51d3b2f1966e7f405ff1dd532e3f6911ba4c44b7f091efe33519e1cdb937",
	"fma3d/97":             "4f2d130f7232d83553f9fa1506c0bb5ab718e298f135d82b8eb3e4eec20731e3",
	"eon/1":                "1396dbf3cba9e36f0bc139e4ef8f04936d0c679be20aa8a0bb1dfbb699856d63",
	"eon/7":                "459c6809e6db5a0f34224c7d4533b639413ac2f7ff811e978072de0af66a4cd6",
	"eon/97":               "e36f4f2469c058d4f662b8288ef90c67eab650b98f2fd344111bdde2ab048ed3",
	"perlbmk/1":            "5e6f508f892194fa5d93bba2328df83332f5d1d171739548c2ad7da54dd3fd02",
	"perlbmk/7":            "d95b51d3b2f1966e7f405ff1dd532e3f6911ba4c44b7f091efe33519e1cdb937",
	"perlbmk/97":           "4f2d130f7232d83553f9fa1506c0bb5ab718e298f135d82b8eb3e4eec20731e3",
	"gap/1":                "1396dbf3cba9e36f0bc139e4ef8f04936d0c679be20aa8a0bb1dfbb699856d63",
	"gap/7":                "459c6809e6db5a0f34224c7d4533b639413ac2f7ff811e978072de0af66a4cd6",
	"gap/97":               "e36f4f2469c058d4f662b8288ef90c67eab650b98f2fd344111bdde2ab048ed3",
	"lucas/1":              "5e6f508f892194fa5d93bba2328df83332f5d1d171739548c2ad7da54dd3fd02",
	"lucas/7":              "d95b51d3b2f1966e7f405ff1dd532e3f6911ba4c44b7f091efe33519e1cdb937",
	"lucas/97":             "4f2d130f7232d83553f9fa1506c0bb5ab718e298f135d82b8eb3e4eec20731e3",
	"sixtrack/1":           "1396dbf3cba9e36f0bc139e4ef8f04936d0c679be20aa8a0bb1dfbb699856d63",
	"sixtrack/7":           "459c6809e6db5a0f34224c7d4533b639413ac2f7ff811e978072de0af66a4cd6",
	"sixtrack/97":          "e36f4f2469c058d4f662b8288ef90c67eab650b98f2fd344111bdde2ab048ed3",
	"bwaves/1":             "5e6f508f892194fa5d93bba2328df83332f5d1d171739548c2ad7da54dd3fd02",
	"bwaves/7":             "d95b51d3b2f1966e7f405ff1dd532e3f6911ba4c44b7f091efe33519e1cdb937",
	"bwaves/97":            "4f2d130f7232d83553f9fa1506c0bb5ab718e298f135d82b8eb3e4eec20731e3",
	"gcc/1":                "1396dbf3cba9e36f0bc139e4ef8f04936d0c679be20aa8a0bb1dfbb699856d63",
	"gcc/7":                "459c6809e6db5a0f34224c7d4533b639413ac2f7ff811e978072de0af66a4cd6",
	"gcc/97":               "e36f4f2469c058d4f662b8288ef90c67eab650b98f2fd344111bdde2ab048ed3",
	"mcf/1":                "5e6f508f892194fa5d93bba2328df83332f5d1d171739548c2ad7da54dd3fd02",
	"mcf/7":                "d95b51d3b2f1966e7f405ff1dd532e3f6911ba4c44b7f091efe33519e1cdb937",
	"mcf/97":               "4f2d130f7232d83553f9fa1506c0bb5ab718e298f135d82b8eb3e4eec20731e3",
	"milc/1":               "1396dbf3cba9e36f0bc139e4ef8f04936d0c679be20aa8a0bb1dfbb699856d63",
	"milc/7":               "459c6809e6db5a0f34224c7d4533b639413ac2f7ff811e978072de0af66a4cd6",
	"milc/97":              "e36f4f2469c058d4f662b8288ef90c67eab650b98f2fd344111bdde2ab048ed3",
	"zeusmp/1":             "5e6f508f892194fa5d93bba2328df83332f5d1d171739548c2ad7da54dd3fd02",
	"zeusmp/7":             "d95b51d3b2f1966e7f405ff1dd532e3f6911ba4c44b7f091efe33519e1cdb937",
	"zeusmp/97":            "4f2d130f7232d83553f9fa1506c0bb5ab718e298f135d82b8eb3e4eec20731e3",
	"cactusADM/1":          "1396dbf3cba9e36f0bc139e4ef8f04936d0c679be20aa8a0bb1dfbb699856d63",
	"cactusADM/7":          "459c6809e6db5a0f34224c7d4533b639413ac2f7ff811e978072de0af66a4cd6",
	"cactusADM/97":         "e36f4f2469c058d4f662b8288ef90c67eab650b98f2fd344111bdde2ab048ed3",
	"leslie3d/1":           "5e6f508f892194fa5d93bba2328df83332f5d1d171739548c2ad7da54dd3fd02",
	"leslie3d/7":           "d95b51d3b2f1966e7f405ff1dd532e3f6911ba4c44b7f091efe33519e1cdb937",
	"leslie3d/97":          "4f2d130f7232d83553f9fa1506c0bb5ab718e298f135d82b8eb3e4eec20731e3",
	"namd/1":               "1396dbf3cba9e36f0bc139e4ef8f04936d0c679be20aa8a0bb1dfbb699856d63",
	"namd/7":               "459c6809e6db5a0f34224c7d4533b639413ac2f7ff811e978072de0af66a4cd6",
	"namd/97":              "e36f4f2469c058d4f662b8288ef90c67eab650b98f2fd344111bdde2ab048ed3",
	"gobmk/1":              "5e6f508f892194fa5d93bba2328df83332f5d1d171739548c2ad7da54dd3fd02",
	"gobmk/7":              "d95b51d3b2f1966e7f405ff1dd532e3f6911ba4c44b7f091efe33519e1cdb937",
	"gobmk/97":             "4f2d130f7232d83553f9fa1506c0bb5ab718e298f135d82b8eb3e4eec20731e3",
	"dealII/1":             "1396dbf3cba9e36f0bc139e4ef8f04936d0c679be20aa8a0bb1dfbb699856d63",
	"dealII/7":             "459c6809e6db5a0f34224c7d4533b639413ac2f7ff811e978072de0af66a4cd6",
	"dealII/97":            "e36f4f2469c058d4f662b8288ef90c67eab650b98f2fd344111bdde2ab048ed3",
	"soplex/1":             "5e6f508f892194fa5d93bba2328df83332f5d1d171739548c2ad7da54dd3fd02",
	"soplex/7":             "d95b51d3b2f1966e7f405ff1dd532e3f6911ba4c44b7f091efe33519e1cdb937",
	"soplex/97":            "4f2d130f7232d83553f9fa1506c0bb5ab718e298f135d82b8eb3e4eec20731e3",
	"povray/1":             "1396dbf3cba9e36f0bc139e4ef8f04936d0c679be20aa8a0bb1dfbb699856d63",
	"povray/7":             "459c6809e6db5a0f34224c7d4533b639413ac2f7ff811e978072de0af66a4cd6",
	"povray/97":            "e36f4f2469c058d4f662b8288ef90c67eab650b98f2fd344111bdde2ab048ed3",
	"calculix/1":           "5e6f508f892194fa5d93bba2328df83332f5d1d171739548c2ad7da54dd3fd02",
	"calculix/7":           "d95b51d3b2f1966e7f405ff1dd532e3f6911ba4c44b7f091efe33519e1cdb937",
	"calculix/97":          "4f2d130f7232d83553f9fa1506c0bb5ab718e298f135d82b8eb3e4eec20731e3",
	"gemsFDTD/1":           "1396dbf3cba9e36f0bc139e4ef8f04936d0c679be20aa8a0bb1dfbb699856d63",
	"gemsFDTD/7":           "459c6809e6db5a0f34224c7d4533b639413ac2f7ff811e978072de0af66a4cd6",
	"gemsFDTD/97":          "e36f4f2469c058d4f662b8288ef90c67eab650b98f2fd344111bdde2ab048ed3",
	"libquantum/1":         "e848d3fd5bb9113884a603a4c503c58441b92385f960ea18950871c20290c586",
	"libquantum/7":         "65bd039b6a62e277f1be3d6298aa8811a554e7b26f808b2029e75d2cfba11648",
	"libquantum/97":        "af3bfd80e85380bd803eb05e97808ef5b249e6ac8aa2b7c6f5480b3bb25f14d6",
	"h264ref/1":            "1c93e7fc5b54f763a8e7be526d061997593d3fd4026031e757f3282989ef94bc",
	"h264ref/7":            "713bb8c018268440d1050135f0504a380d10432d96e6727b45a49d56cdaf5448",
	"h264ref/97":           "0b1c38380b6ae5f93068f6baebddd3ff96e87efdd9ae075400164c780f8fd396",
	"tonto/1":              "5e6f508f892194fa5d93bba2328df83332f5d1d171739548c2ad7da54dd3fd02",
	"tonto/7":              "d95b51d3b2f1966e7f405ff1dd532e3f6911ba4c44b7f091efe33519e1cdb937",
	"tonto/97":             "4f2d130f7232d83553f9fa1506c0bb5ab718e298f135d82b8eb3e4eec20731e3",
	"wrf/1":                "1c93e7fc5b54f763a8e7be526d061997593d3fd4026031e757f3282989ef94bc",
	"wrf/7":                "713bb8c018268440d1050135f0504a380d10432d96e6727b45a49d56cdaf5448",
	"wrf/97":               "0b1c38380b6ae5f93068f6baebddd3ff96e87efdd9ae075400164c780f8fd396",
	"sjeng/1":              "5e6f508f892194fa5d93bba2328df83332f5d1d171739548c2ad7da54dd3fd02",
	"sjeng/7":              "d95b51d3b2f1966e7f405ff1dd532e3f6911ba4c44b7f091efe33519e1cdb937",
	"sjeng/97":             "4f2d130f7232d83553f9fa1506c0bb5ab718e298f135d82b8eb3e4eec20731e3",
	"xalancbmk/1":          "1396dbf3cba9e36f0bc139e4ef8f04936d0c679be20aa8a0bb1dfbb699856d63",
	"xalancbmk/7":          "459c6809e6db5a0f34224c7d4533b639413ac2f7ff811e978072de0af66a4cd6",
	"xalancbmk/97":         "e36f4f2469c058d4f662b8288ef90c67eab650b98f2fd344111bdde2ab048ed3",
	"bench52/1":            "5e6f508f892194fa5d93bba2328df83332f5d1d171739548c2ad7da54dd3fd02",
	"bench52/7":            "d95b51d3b2f1966e7f405ff1dd532e3f6911ba4c44b7f091efe33519e1cdb937",
	"bench52/97":           "4f2d130f7232d83553f9fa1506c0bb5ab718e298f135d82b8eb3e4eec20731e3",
	"bandwidth-bound.0/1":  "06b3fced919067e80abdcb5cae1232b68da93c4746bcb43ac6d541c20a5482aa",
	"bandwidth-bound.0/7":  "862f8f1bcabdbc1617e7c4b6911d7de24ae9cd95169a8054e77cd740d8a48bbd",
	"bandwidth-bound.0/97": "ce6d3e4c2b2b9bb9bea7a88aff455794cc1b3a0af9439114ef7ae43e6b087066",
	"bandwidth-bound.1/1":  "06b3fced919067e80abdcb5cae1232b68da93c4746bcb43ac6d541c20a5482aa",
	"bandwidth-bound.1/7":  "862f8f1bcabdbc1617e7c4b6911d7de24ae9cd95169a8054e77cd740d8a48bbd",
	"bandwidth-bound.1/97": "ce6d3e4c2b2b9bb9bea7a88aff455794cc1b3a0af9439114ef7ae43e6b087066",
	"bandwidth-bound.2/1":  "339be2d640a43afa63f408df9ce30d333d371a032df038f1a743b94a473c603f",
	"bandwidth-bound.2/7":  "983741c74e5842750569d6b2eef62be141d2d8619f92611a4b8499d3cb291cfe",
	"bandwidth-bound.2/97": "13ad5417e65b757bb1e41377cfadbe6e9d81f398178968921b848c8573019928",
	"bandwidth-bound.3/1":  "06b3fced919067e80abdcb5cae1232b68da93c4746bcb43ac6d541c20a5482aa",
	"bandwidth-bound.3/7":  "862f8f1bcabdbc1617e7c4b6911d7de24ae9cd95169a8054e77cd740d8a48bbd",
	"bandwidth-bound.3/97": "ce6d3e4c2b2b9bb9bea7a88aff455794cc1b3a0af9439114ef7ae43e6b087066",
	"bursty.0/1":           "6833c94d2c9373b5fb498bca44215e48f850b9da3847cda5b3d01777404a0a4d",
	"bursty.0/7":           "79477ebfa04d85b139e72e0439ac3328c9ae14ebfe7941227e964670bc1a721b",
	"bursty.0/97":          "a80b0aafe499cab6dcc429c5280d233d204005bb1ef4163a311934f0d7327f13",
	"bursty.1/1":           "299f7a116cb23fa1846590f02b953ccd5108b0a9aceaef643fc06d667dde720d",
	"bursty.1/7":           "63549a66a694b9406703038035f0c8d5ef478cf840e489339f2c4c0eeeedd959",
	"bursty.1/97":          "8568a41c3fe2e38a85ac769b49fb03949e8879b4ed9de68db7218614ee2b3196",
	"bursty.2/1":           "0ace1192c171b9f8808e707763f6ee35f5a66072dcb05c62734d0ab6e72bace2",
	"bursty.2/7":           "6b98f4cd8a0bf300dc814170327269e9537acb95956b8b6bd5752c19655c28f7",
	"bursty.2/97":          "8fa353a2f35818c03d376b65c6a34d21956b6351de23d89198a70b27154846c9",
	"bursty.3/1":           "6833c94d2c9373b5fb498bca44215e48f850b9da3847cda5b3d01777404a0a4d",
	"bursty.3/7":           "79477ebfa04d85b139e72e0439ac3328c9ae14ebfe7941227e964670bc1a721b",
	"bursty.3/97":          "a80b0aafe499cab6dcc429c5280d233d204005bb1ef4163a311934f0d7327f13",
	"cache-thrash.0/1":     "62aca25e82892e3dcdd4ff38a6a95fc79d4ae2200d2149803625572bac6682ad",
	"cache-thrash.0/7":     "f5b414a26469cb3c34911a83b32855ced730298f868727d8e7edcb10cf9e6c12",
	"cache-thrash.0/97":    "b542408985d743e08bacb8c1c490ddcfbec3e84ea0c57a814edadec73aab2c69",
	"cache-thrash.1/1":     "1be3b10ba28732976293e85f4be819e19b848de3d441582576f03e2d56a526e4",
	"cache-thrash.1/7":     "a8f2eb884b39573c01fc3714f41166b020ab702e383fecd356099150fd8cef0a",
	"cache-thrash.1/97":    "bb06db86e07bcd1138d122b6331a6057ca8c6ce51c5bb912fd3c9f0c9b87c4aa",
	"cache-thrash.2/1":     "62aca25e82892e3dcdd4ff38a6a95fc79d4ae2200d2149803625572bac6682ad",
	"cache-thrash.2/7":     "f5b414a26469cb3c34911a83b32855ced730298f868727d8e7edcb10cf9e6c12",
	"cache-thrash.2/97":    "b542408985d743e08bacb8c1c490ddcfbec3e84ea0c57a814edadec73aab2c69",
	"cache-thrash.3/1":     "1be3b10ba28732976293e85f4be819e19b848de3d441582576f03e2d56a526e4",
	"cache-thrash.3/7":     "a8f2eb884b39573c01fc3714f41166b020ab702e383fecd356099150fd8cef0a",
	"cache-thrash.3/97":    "bb06db86e07bcd1138d122b6331a6057ca8c6ce51c5bb912fd3c9f0c9b87c4aa",
	"compute-heavy.0/1":    "f8fdc3f75cb2c568a4d9a251be54dcccc1e778637d52e96b661dbf3613ced58e",
	"compute-heavy.0/7":    "a0fd27e84db06580cb17f4625dce8e7aa5f554fa70f7c45275989583c96a9927",
	"compute-heavy.0/97":   "042bb74ffff94128b12ec9a77d336f73be3901061d448fb30e18379b2d33aca9",
	"compute-heavy.1/1":    "ea48270d5a3c015a71ee0f89609c13bfddbb46ad4fee987bd2fb58432b4eeac6",
	"compute-heavy.1/7":    "d6bddbb029e5a046160058920ac00a9a541591be0515aca4bd1ed03754ab4d19",
	"compute-heavy.1/97":   "748830cb269f0c2a0d7b5abbb66c1d3de1f51e3a4c3b3eed0946a90ebe561395",
	"compute-heavy.2/1":    "6ba1cbfbb75ddf925a97407de7bb5f422f540b213af5c6a82338ca524cab2501",
	"compute-heavy.2/7":    "e59bc9823830e65973367943cd11c0f09dcde6ee6d62863c192de5d02dcf37f1",
	"compute-heavy.2/97":   "9181a34a5881c51edd28a2253471feb38cad06b43942e7943b2d927dfd508175",
	"compute-heavy.3/1":    "f8fdc3f75cb2c568a4d9a251be54dcccc1e778637d52e96b661dbf3613ced58e",
	"compute-heavy.3/7":    "a0fd27e84db06580cb17f4625dce8e7aa5f554fa70f7c45275989583c96a9927",
	"compute-heavy.3/97":   "042bb74ffff94128b12ec9a77d336f73be3901061d448fb30e18379b2d33aca9",
	"latency-bound.0/1":    "0773fff4dec06f0041d0e506dd44169e674bb76a43dcbc36ef8cd95bdc039989",
	"latency-bound.0/7":    "353d47b3466e7e58f4e6a0d2409af4318863131f29776355bde28ce8d980c150",
	"latency-bound.0/97":   "6b51494ed4828548d5bd893856dfbd4c30bd4d96c8099979d3fba738263bf0a3",
	"latency-bound.1/1":    "29cf6f0c706985dc9da004b1d9fb34ef16d4da40a23a03cbb3b8cc96b89bcc0c",
	"latency-bound.1/7":    "ab6b0bc2b5376fdb331bf4d2e94b6652a76aa24d219f9728d53187f959f18767",
	"latency-bound.1/97":   "01e959f963947d4f323d78a37702fbd2fcc38cdd3f8ccddb45c8645886cc8d09",
	"latency-bound.2/1":    "0773fff4dec06f0041d0e506dd44169e674bb76a43dcbc36ef8cd95bdc039989",
	"latency-bound.2/7":    "353d47b3466e7e58f4e6a0d2409af4318863131f29776355bde28ce8d980c150",
	"latency-bound.2/97":   "6b51494ed4828548d5bd893856dfbd4c30bd4d96c8099979d3fba738263bf0a3",
	"latency-bound.3/1":    "29cf6f0c706985dc9da004b1d9fb34ef16d4da40a23a03cbb3b8cc96b89bcc0c",
	"latency-bound.3/7":    "ab6b0bc2b5376fdb331bf4d2e94b6652a76aa24d219f9728d53187f959f18767",
	"latency-bound.3/97":   "01e959f963947d4f323d78a37702fbd2fcc38cdd3f8ccddb45c8645886cc8d09",
	"phased.0/1":           "6462e2c06f8541b5151a870b1807c09d83b5e35341806e30e3349e4f7eabd6e0",
	"phased.0/7":           "9d767616469e23601a3530042296441f862467d04daa7a1eb373d0dbea922953",
	"phased.0/97":          "d302cc99fbc7b05c0430baac014c6190ff758160e9d8e644bab51bfb32164877",
	"phased.1/1":           "0959366fd2646cecc2d86740a44713cdf07bf5c74d5e41d5b781f15ed6ba5a2e",
	"phased.1/7":           "1c2ae6dc85f11f9bbaecf65b28fa07b6dfe1f2b488b3afe514ff58d9825f3271",
	"phased.1/97":          "b655395bbe250dbaf4d6827248303e66076910342472b6fa362a4839a6d90f72",
	"phased.2/1":           "3257876c23fa194dd0fe62a677323fdc7814fc163a3febb840e1c13589b345b6",
	"phased.2/7":           "b444c35938c3f9250b0a8e7246d2f4fb6520dfbd055f9dd2d7485ba21199b87d",
	"phased.2/97":          "7e2480411015952e23a3d0b792fb6bde8885dfba4cedf6386387c61bdf90518b",
	"phased.3/1":           "76b32180e706c568938c9be0044b48c74200e926b8e91aef305fe7dac58c8641",
	"phased.3/7":           "8265d8e65d31276371c8ba2b8230faf1ae87d7f482d34b9d4f4994245fec2100",
	"phased.3/97":          "2dbbb3535eaf2c52b68fc99b1e8c0fa1d9edabc64eca5b4152c6698281c5e484",
	"pointer-chase.0/1":    "5e100649d6aada552cb5f40ab3e25527a4910314f1978d85a17108965fdcc019",
	"pointer-chase.0/7":    "cc2916d9c4f3ba8481951fbaf34f4e6b6d75c0fa453bd4e41fd18a56a23df523",
	"pointer-chase.0/97":   "5bc0d94245e530f1cca2cace473e42fbd3d91f4a38cc41511d8818a817c0bb74",
	"pointer-chase.1/1":    "603c82b195ec0829ac855df87fc8dba5e978ae890b7d210e3dad7fa15fa9776d",
	"pointer-chase.1/7":    "edc262cba23cdd9d868666124d7eb9f4d46f26bb4a9c7f61db5ace38e663968c",
	"pointer-chase.1/97":   "4c9d141b9a288ace26f5ee798e64ff1398098c1d29e30b4808888b67d8909bd6",
	"pointer-chase.2/1":    "5e100649d6aada552cb5f40ab3e25527a4910314f1978d85a17108965fdcc019",
	"pointer-chase.2/7":    "cc2916d9c4f3ba8481951fbaf34f4e6b6d75c0fa453bd4e41fd18a56a23df523",
	"pointer-chase.2/97":   "5bc0d94245e530f1cca2cace473e42fbd3d91f4a38cc41511d8818a817c0bb74",
	"pointer-chase.3/1":    "603c82b195ec0829ac855df87fc8dba5e978ae890b7d210e3dad7fa15fa9776d",
	"pointer-chase.3/7":    "edc262cba23cdd9d868666124d7eb9f4d46f26bb4a9c7f61db5ace38e663968c",
	"pointer-chase.3/97":   "4c9d141b9a288ace26f5ee798e64ff1398098c1d29e30b4808888b67d8909bd6",
	"streaming.0/1":        "7f55dcbae25b1cbb24dfe4cc1389b5c3366747cad4d16f5471bc840276123afe",
	"streaming.0/7":        "d302357e176831958a72591ad8356119d4325d7f7ee36fcacfbb566111c87cc4",
	"streaming.0/97":       "52ed6f5e7592056da70af555d21a7916bcf717b2dee16472638a6259ca46063f",
	"streaming.1/1":        "17cddf1a767aebc33eb7c25c09f679a38bf043f885f2a0f2f73fd80ce2ff743d",
	"streaming.1/7":        "423327a5aba2040afe678b22a75b074c1ffe4c90b931df02e7befcfb411936cd",
	"streaming.1/97":       "6c2c184547f83e1eff70368377e03027169977bbd88fbe714ed40ac0a121122e",
	"streaming.2/1":        "7f55dcbae25b1cbb24dfe4cc1389b5c3366747cad4d16f5471bc840276123afe",
	"streaming.2/7":        "d302357e176831958a72591ad8356119d4325d7f7ee36fcacfbb566111c87cc4",
	"streaming.2/97":       "52ed6f5e7592056da70af555d21a7916bcf717b2dee16472638a6259ca46063f",
	"streaming.3/1":        "17cddf1a767aebc33eb7c25c09f679a38bf043f885f2a0f2f73fd80ce2ff743d",
	"streaming.3/7":        "423327a5aba2040afe678b22a75b074c1ffe4c90b931df02e7befcfb411936cd",
	"streaming.3/97":       "6c2c184547f83e1eff70368377e03027169977bbd88fbe714ed40ac0a121122e",
}
