package repro.disk

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class DiskSimSpec extends AnyFunSuite {
  private val cm = CostModel(seqSeekSec = 1e-4, randSeekSec = 1e-3, bytesPerSec = 1e9,
                             vertexIOSec = 1e-6, stepBaseSec = 1e-8, stepPerNeighborSec = 1e-10)

  test("first block read is random (no prior position)") {
    val sim = new DiskSim(cm)
    sim.readBlock(0, 1000)
    assert(sim.blockIOCount == 1 && sim.blockIOSeqCount == 0)
    assert(math.abs(sim.blockIOTimeSec - (1e-3 + 1000 / 1e9)) < 1e-12)
  }

  test("contiguous follow-up read is sequential") {
    val sim = new DiskSim(cm)
    sim.readBlock(0, 1000)
    sim.readBlock(1000, 500)
    assert(sim.blockIOCount == 2 && sim.blockIOSeqCount == 1)
  }

  test("backward jump is random") {
    val sim = new DiskSim(cm)
    sim.readBlock(0, 1000)
    sim.readBlock(0, 1000)
    assert(sim.blockIOSeqCount == 0)
  }

  test("gap forward is random") {
    val sim = new DiskSim(cm)
    sim.readBlock(0, 1000)
    sim.readBlock(2000, 1000)
    assert(sim.blockIOSeqCount == 0)
  }

  test("vertex reads accumulate count and amortized time") {
    val sim = new DiskSim(cm)
    sim.readVertices(10)
    assert(sim.vertexIOCount == 10)
    assert(math.abs(sim.vertexIOTimeSec - 10e-6) < 1e-15)
  }

  test("vertex reads break sequential position") {
    val sim = new DiskSim(cm)
    sim.readBlock(0, 1000)
    sim.readVertices(1)
    sim.readBlock(1000, 1000)
    assert(sim.blockIOSeqCount == 0)
  }

  test("byteScale multiplies block transfer but not seek") {
    val s1 = new DiskSim(cm, byteScale = 1.0)
    val s2 = new DiskSim(cm, byteScale = 100.0)
    s1.readBlock(0, 1e6.toLong); s2.readBlock(0, 1e6.toLong)
    val transfer1 = s1.blockIOTimeSec - 1e-3
    val transfer2 = s2.blockIOTimeSec - 1e-3
    assert(math.abs(transfer2 / transfer1 - 100.0) < 1e-6)
  }

  test("walkScale multiplies vertex I/O and execution time, not counts") {
    val s = new DiskSim(cm, walkScale = 50.0)
    s.readVertices(4)
    s.chargeSteps(1, neighborWork = 10)
    assert(s.vertexIOCount == 4 && s.steps == 1)
    assert(math.abs(s.vertexIOTimeSec - 4 * 1e-6 * 50) < 1e-12)
    assert(math.abs(s.execTimeSec - (1e-8 + 10 * 1e-10) * 50) < 1e-15)
  }

  test("first-order steps skip the per-neighbor charge") {
    val s = new DiskSim(cm)
    s.chargeSteps(1, neighborWork = 0)
    assert(math.abs(s.execTimeSec - 1e-8) < 1e-15)
    assert(s.neighborWork == 0)
  }

  test("second-order steps accumulate neighbor work") {
    val s = new DiskSim(cm)
    s.chargeSteps(1, neighborWork = 7)
    s.chargeSteps(1, neighborWork = 5)
    assert(s.neighborWork == 12)
  }

  test("walk I/O charges bytes at the walk record size") {
    val s = new DiskSim(cm)
    s.walkIO(100)
    assert(s.walkIOBytes == 100 * cm.walkBytes)
    assert(math.abs(s.walkIOTimeSec - 100.0 * cm.walkBytes / 1e9) < 1e-15)
  }

  test("wall time is the sum of I/O and execution components") {
    val s = new DiskSim(cm)
    s.readBlock(0, 1000); s.readVertices(3); s.walkIO(10); s.chargeSteps(1, neighborWork = 4)
    s.chargeCacheInit(5000)
    val m = s.snapshot
    assert(m.cacheInitTimeSec > 0)
    assert(math.abs(s.wallTimeSec -
      (m.blockIOTimeSec + m.vertexIOTimeSec + m.walkIOTimeSec + m.cacheInitTimeSec + m.execTimeSec)) < 1e-15)
  }

  test("a cache scan is one random seek plus its transfer") {
    val s = new DiskSim(cm, byteScale = 4.0)
    s.chargeCacheInit(5000)
    assert(s.snapshot.cacheInitTimeSec == 1e-3 + 5000 * 4.0 / 1e9)
  }

  test("times are priced from counts: any order of the same charges gives an equal snapshot") {
    // Charges without a block read, so their order cannot change a count.
    final case class Charge(name: String, run: DiskSim => Unit) { override def toString: String = name }
    val charge: Gen[Charge] = Gen.oneOf(
      Gen.choose(0L, 50L).map(n => Charge(s"readVertices($n)", _.readVertices(n))),
      Gen.choose(0L, 500L).map(n => Charge(s"walkIO($n)", _.walkIO(n))),
      for (n <- Gen.choose(0L, 50L); work <- Gen.choose(0L, 10000L))
        yield Charge(s"chargeSteps($n, $work)", _.chargeSteps(n, work)),
      Gen.choose(0L, 1L << 30).map(b => Charge(s"chargeCacheInit($b)", _.chargeCacheInit(b))),
    )
    val charges = for {
      cs <- Gen.listOf(charge)
      keys <- Gen.listOfN(cs.length, Gen.long) // sorting by random keys permutes
    } yield (cs, cs.zip(keys).sortBy(_._2).map(_._1))
    val prop = Prop.forAllNoShrink(charges) { case (cs, permuted) =>
      def replay(order: Seq[Charge]): DiskSim.Metrics = {
        val s = new DiskSim(CostModel.paperSsd, byteScale = 37.3, walkScale = 411.7)
        order.foreach(_.run(s))
        s.snapshot
      }
      replay(cs) == replay(permuted)
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(Seed(20221L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status)
  }

  test("snapshot mirrors the counters") {
    val s = new DiskSim(cm)
    s.readBlock(0, 10); s.readVertices(2); s.chargeSteps(1, neighborWork = 3)
    val m = s.snapshot
    assert(m.blockIOCount == 1 && m.vertexIOCount == 2 && m.steps == 1)
    assert(m.wallTimeSec == s.wallTimeSec && m.execTimeSec == s.execTimeSec)
    assert(m.blockIOTimeSec == s.blockIOTimeSec && m.vertexIOTimeSec == s.vertexIOTimeSec &&
           m.walkIOTimeSec == s.walkIOTimeSec)
  }

  test("paperSsd cost model has sensible orderings") {
    val c = CostModel.paperSsd
    assert(c.randSeekSec > c.seqSeekSec)
    assert(c.vertexIOSec < c.randSeekSec) // light I/Os amortized below a block seek
    assert(c.stepBaseSec < c.vertexIOSec) // sampling is cheaper than any I/O
  }
}
