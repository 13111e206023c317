package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.{BiBlockEngine, BlockLoading}
import repro.walk.WalkTask
import EngineTestKit._

class BaselineEnginesSpec extends AnyFunSuite {

  private val g = TestGraphs.connected(150, 300, seed = 61)
  private val bg = TestGraphs.blocked(g, 6)
  private def rwnv = WalkTask.rwnv(g, walksPerVertex = 1, len = 20)

  test("SOGW performs massive light vertex I/Os on second-order walks") {
    val r = runTraced(new SogwEngine(false), bg, rwnv)
    assert(r.m.vertexIOCount > 0)
    // Every step whose previous vertex is out of memory pays one I/O; with 6
    // random-ish blocks most steps cross, so this must be a large fraction.
    assert(r.m.vertexIOCount > r.m.steps / 10)
  }

  test("SOGW performs no vertex I/Os on first-order walks") {
    val dw = WalkTask.deepwalk(g, walksPerVertex = 1, len = 20)
    val r = runTraced(new SogwEngine(false), bg, dw)
    assert(r.m.vertexIOCount == 0)
  }

  test("SGSC's static cache reduces vertex I/Os versus SOGW") {
    val sogw = runTraced(new SogwEngine(false), bg, rwnv)
    val sgsc = runTraced(new SogwEngine(true), bg, rwnv)
    assert(sgsc.m.vertexIOCount < sogw.m.vertexIOCount)
  }

  test("SGSC pays the cache initialization scan") {
    val r = runTraced(new SogwEngine(true), bg, rwnv)
    assert(r.m.cacheInitTimeSec > 0)
    assert(runTraced(new SogwEngine(false), bg, rwnv).m.cacheInitTimeSec == 0)
  }

  test("bi-block engine eliminates the vertex I/Os SOGW pays") {
    val sogw = runTraced(new SogwEngine(false), bg, rwnv)
    val bi = runTraced(new BiBlockEngine(BlockLoading.AlwaysFull), bg, rwnv)
    assert(sogw.m.vertexIOCount > 0 && bi.m.vertexIOCount == 0)
  }

  test("PB engine also eliminates vertex I/Os (buckets + ancillary block)") {
    val pb = runTraced(new PlainBucketEngine, bg, rwnv)
    assert(pb.m.vertexIOCount == 0)
  }

  test("PB pays more block I/Os than SOGW (ancillary sweeps)") {
    val pb = runTraced(new PlainBucketEngine, bg, rwnv)
    val sogw = runTraced(new SogwEngine(false), bg, rwnv)
    assert(pb.m.blockIOCount > sogw.m.blockIOCount)
  }

  test("first-order engine completes all walks") {
    val dw = WalkTask.deepwalk(g, walksPerVertex = 1, len = 25)
    val r = runTraced(new FirstOrderEngine(new Scheduling.Iteration), bg, dw)
    assert((0 until r.trace.nWalks).forall(r.trace.length(_) == 26))
    assertValidTrajectories(bg, dw, r.trace)
  }

  test("Alphabet pays at least as many block loads as Iteration") {
    val dw = WalkTask.deepwalk(g, walksPerVertex = 1, len = 25)
    val alpha = runTraced(new FirstOrderEngine(new Scheduling.Alphabet), bg, dw)
    val iter = runTraced(new FirstOrderEngine(new Scheduling.Iteration), bg, dw)
    assert(alpha.m.blockIOCount >= iter.m.blockIOCount)
  }

  test("first-order on-demand loading trades block reads for vertex reads") {
    val dw = WalkTask.deepwalk(g, walksPerVertex = 1, len = 25)
    val full = runTraced(new FirstOrderEngine(new Scheduling.Iteration, BlockLoading.AlwaysFull), bg, dw)
    val od = runTraced(new FirstOrderEngine(new Scheduling.Iteration, BlockLoading.AlwaysOnDemand), bg, dw)
    assert(full.m.vertexIOCount == 0 && od.m.vertexIOCount > 0)
    assert(od.m.blockIOCount < full.m.blockIOCount)
  }

  test("first-order engine rejects second-order tasks") {
    assertThrows[IllegalArgumentException](
      new FirstOrderEngine(new Scheduling.Iteration).run(bg, rwnv, new repro.disk.DiskSim()))
  }

  test("engines expose their names") {
    assert(new SogwEngine(false).name == "SOGW")
    assert(new SogwEngine(true).name == "SGSC")
    assert(new PlainBucketEngine().name == "PB")
    assert(new FirstOrderEngine(new Scheduling.MaxSum).name == "FirstOrder(Max-Sum)")
  }

  test("SOGW two-slot memory avoids reloading a resident block") {
    // With 2 blocks everything fits the two slots: after the initial loads
    // the engine must not re-read blocks.
    val small = TestGraphs.connected(40, 80, seed = 62)
    val sbg = TestGraphs.blocked(small, 2)
    val r = runTraced(new SogwEngine(false), sbg, WalkTask.rwnv(small, walksPerVertex = 1, len = 30))
    assert(r.m.blockIOCount <= 4, s"blockIO=${r.m.blockIOCount}")
  }

  test("walk I/O is charged for pool traffic") {
    val r = runTraced(new SogwEngine(false), bg, rwnv)
    assert(r.m.walkIOTimeSec > 0)
  }

  /** (block I/Os, sequential block I/Os, vertex I/Os, steps, time slots,
    * supersteps) of one run. Each engine differs from the others only in
    * the blocks it holds and what it charges for them, so a charge that
    * moves between engines changes one of the pinned rows below.
    */
  private def ioCounts(e: WalkEngine, task: WalkTask) = {
    val m = runTraced(e, bg, task).m
    (m.blockIOCount, m.blockIOSeqCount, m.vertexIOCount, m.steps, m.timeSlots, m.supersteps)
  }

  test("second-order engines' I/O counts are pinned (RWNV)") {
    val pinned = Seq(
      (133L, 94L, 0L, 3000L, 40L, 8L),   // BiBlock(full)
      (40L, 5L, 882L, 3000L, 40L, 8L),   // BiBlock(on-demand)
      (218L, 115L, 0L, 3000L, 46L, 0L),  // PB
      (60L, 5L, 1230L, 3000L, 61L, 0L),  // SOGW
      (60L, 5L, 993L, 3000L, 61L, 0L),   // SGSC
    )
    for ((e, exp) <- secondOrderEngines.zip(pinned))
      assert(ioCounts(e, rwnv) == exp, e.name)
  }

  test("first-order engines' I/O counts are pinned (DeepWalk)") {
    val dw = WalkTask.deepwalk(g, walksPerVertex = 1, len = 20)
    val pinned = Seq(
      (58L, 7L, 0L, 3000L, 58L, 0L),     // GraphWalker
      (58L, 47L, 0L, 3000L, 58L, 0L),    // Iteration
      (59L, 49L, 0L, 3000L, 59L, 0L),    // Alphabet
      (58L, 27L, 0L, 3000L, 58L, 0L),    // Min-Height
      (57L, 14L, 0L, 3000L, 57L, 0L),    // Max-Sum
      (0L, 0L, 976L, 3000L, 58L, 0L),    // Iteration, on-demand load
    )
    for ((e, exp) <- firstOrderEngines.zip(pinned))
      assert(ioCounts(e, dw) == exp, e.name)
  }
}
