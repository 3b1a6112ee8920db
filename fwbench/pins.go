package main

import (
	"fmt"

	"flashwalker/internal/core"
)

// shippedSeeds are the walk seeds the simulator workloads run with; the
// benchmark's -seed picks one of them (seed mod 4), so every run is
// checked against a pin. Seeds 1-3 were used while tuning the benchmark;
// seed 4 was kept out of tuning.
var shippedSeeds = []uint64{1, 2, 3, 4}

func shippedSeed(seed uint64) uint64 { return shippedSeeds[seed%uint64(len(shippedSeeds))] }

// digest renders the simulated outputs of a run: the fields of core's
// golden digest plus the second-order filter probes and the fabric
// traffic of arrays. Two runs of one configuration must agree on it
// exactly; host speed never changes it.
func digest(r *core.Result) string {
	return fmt.Sprintf(
		"time=%d started=%d completed=%d dead=%d hops=%d "+
			"readPages=%d progPages=%d readB=%d chanB=%d "+
			"dramR=%d dramW=%d "+
			"qcHit=%d qcMiss=%d search=%d range=%d prewalk=%d "+
			"hotCh=%d hotBd=%d chip=%d loads=%d reloads=%d "+
			"pwb=%d foreign=%d switches=%d probes=%d fabric=%d",
		r.Time, r.Started, r.Completed, r.DeadEnded, r.Hops,
		r.Flash.ReadPages, r.Flash.ProgramPages, r.Flash.ReadBytes, r.Flash.ChannelBytes,
		r.DRAMReadBytes, r.DRAMWriteBytes,
		r.QueryCacheHits, r.QueryCacheMisses, r.TableSearchSteps, r.RangeQueries, r.PreWalks,
		r.HotHitsChannel, r.HotHitsBoard, r.ChipUpdates, r.SubgraphLoads, r.SubgraphReloads,
		r.PWBOverflows, r.ForeignerWalks, r.PartitionSwitches, r.FilterProbes, r.FabricWalks)
}

// pins are the simulated outputs of each simulator workload at each
// shipped seed, captured from the model as it stood when the benchmark
// was defined. The model is not validated against hardware: these pin
// behaviour, they do not claim accuracy. The modelled caches start empty
// in every run.
var pins = map[string]map[uint64]string{
	"tt-fig5": {
		1: "time=4154364 started=100000 completed=85597 dead=14403 hops=516925 readPages=1450 progPages=1558 readB=5939200 chanB=22311372 dramR=8901396 dramW=8901396 qcHit=205743 qcMiss=284096 " +
			"search=1381979 range=374171 prewalk=33528 hotCh=6632 hotBd=64886 chip=459810 loads=168561 reloads=168156 pwb=355 foreign=0 switches=1 probes=0 fabric=0",
		2: "time=4169489 started=100000 completed=85567 dead=14433 hops=516715 readPages=1455 progPages=1569 readB=5959680 chanB=22249696 dramR=8897800 dramW=8897800 qcHit=206489 qcMiss=283283 " +
			"search=1380314 range=373719 prewalk=33370 hotCh=6685 hotBd=64904 chip=459559 loads=164502 reloads=164097 pwb=359 foreign=0 switches=1 probes=0 fabric=0",
		3: "time=4192826 started=100000 completed=85552 dead=14448 hops=516674 readPages=1454 progPages=1569 readB=5955584 chanB=22278532 dramR=8898168 dramW=8898168 qcHit=206273 qcMiss=283720 " +
			"search=1382023 range=373653 prewalk=33359 hotCh=6497 hotBd=65100 chip=459525 loads=166570 reloads=166165 pwb=358 foreign=0 switches=1 probes=0 fabric=0",
		4: "time=4113178 started=100000 completed=85447 dead=14553 hops=515947 readPages=1460 progPages=1572 readB=5980160 chanB=22328176 dramR=8896212 dramW=8896212 qcHit=205813 qcMiss=283641 " +
			"search=1381640 range=373498 prewalk=33191 hotCh=6472 hotBd=64558 chip=459470 loads=169517 reloads=169112 pwb=360 foreign=0 switches=1 probes=0 fabric=0",
	},
	"mb-array-n2v": {
		1: "time=4482065 started=40000 completed=37747 dead=2253 hops=227673 readPages=16146 progPages=971 readB=66134016 chanB=43815060 dramR=13445212 dramW=4422092 qcHit=69813 qcMiss=161180 " +
			"search=1146055 range=183471 prewalk=2866 hotCh=765 hotBd=6789 chip=222372 loads=54883 reloads=40806 pwb=1 foreign=167588 switches=75 probes=742490 fabric=141350",
		2: "time=4553568 started=40000 completed=37808 dead=2192 hops=227917 readPages=16301 progPages=988 readB=66768896 chanB=43793236 dramR=13463616 dramW=4426272 qcHit=69891 qcMiss=161435 " +
			"search=1149141 range=183684 prewalk=2776 hotCh=741 hotBd=6827 chip=222541 loads=52182 reloads=37964 pwb=2 foreign=167883 switches=78 probes=740168 fabric=141417",
		3: "time=4400501 started=40000 completed=37728 dead=2272 hops=227417 readPages=16034 progPages=969 readB=65675264 chanB=43732420 dramR=13421748 dramW=4415340 qcHit=69702 qcMiss=161215 " +
			"search=1149151 range=183183 prewalk=2885 hotCh=702 hotBd=6933 chip=222054 loads=54263 reloads=40290 pwb=0 foreign=167564 switches=77 probes=742451 fabric=140745",
		4: "time=4334644 started=40000 completed=37784 dead=2216 hops=227775 readPages=16250 progPages=970 readB=66560000 chanB=43785404 dramR=13433296 dramW=4421568 qcHit=69921 qcMiss=161357 " +
			"search=1149266 range=183473 prewalk=2724 hotCh=753 hotBd=6946 chip=222292 loads=54708 reloads=40522 pwb=0 foreign=167709 switches=78 probes=743116 fabric=141426",
	},
}

// checkPin compares a run's digest with the pin for its workload and seed.
func checkPin(workload string, seed uint64, got string) error {
	want, ok := pins[workload][seed]
	if !ok {
		return fmt.Errorf("%s: no pin for seed %d (got %s)", workload, seed, got)
	}
	if got != want {
		return fmt.Errorf("%s seed %d: simulated outputs differ from the pin:\n got %s\nwant %s", workload, seed, got, want)
	}
	return nil
}

// selfCheckPin proves the pin check is not vacuous: a result with one
// more hop than the reference must be reported as a mismatch.
func selfCheckPin(workload string, seed uint64, ref *core.Result) error {
	bad := *ref
	bad.Hops++
	if checkPin(workload, seed, digest(&bad)) == nil {
		return fmt.Errorf("%s seed %d: pin check accepted a perturbed result", workload, seed)
	}
	return nil
}
