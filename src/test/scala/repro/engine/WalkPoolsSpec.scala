package repro.engine

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.disk.DiskSim
import repro.walk.WalkTask
import EngineTestKit.records

/** A pool is one part per lane, and which lane routes a walk is timing: only
  * what does not depend on the parts may be read from a pool.
  */
class WalkPoolsSpec extends AnyFunSuite {
  private def sorted(w: WalkBuffer) = (0 until w.length).map(k => (w.id(k), w.hop(k), w.prev(k), w.cur(k))).sorted

  test("size, minHop, isEmpty and the drained records over parts equal one buffer's") {
    val rng = new Random(5)
    val nB = 5
    val pools = new WalkPools(nB)
    val one = Array.fill(nB)(new WalkBuffer)
    // Pool 3 stays empty; part pages fill and spill over (72 records each).
    for (id <- 0 until 2000) {
      val b = Seq(0, 1, 2, 4)(rng.nextInt(4))
      val (hop, prev, cur) = (1 + rng.nextInt(1000), rng.nextInt(100), rng.nextInt(100))
      pools.pool(b).part(rng.nextInt(pools.pool(b).nParts)).add(id, hop, prev, cur)
      one(b).add(id, hop, prev, cur)
    }
    for (b <- 0 until nB) {
      assert(pools.size(b) == one(b).length, s"pool $b")
      assert(pools.pool(b).minHop == one(b).minHop, s"pool $b")
      assert(pools.pool(b).isEmpty == one(b).isEmpty, s"pool $b")
    }
    assert(!pools.isEmpty)
    for (b <- 0 until nB) assert(records(pools.drain(b)).sorted == sorted(one(b)), s"pool $b")
    assert(pools.isEmpty)
    // A recycled pool's parts keep their pages but hold nothing.
    val again = pools.drain(0)
    assert(again.isEmpty && again.minHop == Int.MaxValue && records(again).isEmpty)
  }

  test("a sweep on the lanes pools the records and tallies of one on its caller alone") {
    val bg = TestGraphs.blocked(TestGraphs.connected(3000, 24000, seed = 71), 12)
    val task = WalkTask.rwnv(bg.g, walksPerVertex = 2, len = 20, seed = 77)
    // Init, then one bi-block slot of block 0, on the lanes or on the caller.
    def run(alone: Boolean) = {
      val held = alone && Lanes.acquire(null)
      try {
        val walker = new Walker(bg, task, new DiskSim(), null, null)
        val pools = new WalkPools(bg.nBlocks, skewed = true)
        Init.run(walker, pools)
        val afterInit = (0 until bg.nBlocks).map(b => (pools.size(b), pools.pool(b).minHop, records(pools.pool(b)).sorted))
        val walks = pools.drain(0)
        assert(walks.length >= 48) // a sweep worth sharing
        walker.advanceAll(walks, 0, Walker.Extending, marks = true, pools)
        val tallies = (0 until bg.nBlocks).map(i => (walker.arrivals(i), walker.survivors(i), walker.touched(i)))
        val afterSlot = (0 until bg.nBlocks).map(b => (pools.size(b), pools.pool(b).minHop, records(pools.pool(b)).sorted))
        val inPart0 = (0 until bg.nBlocks).forall(b => pools.size(b) == pools.pool(b).part(0).length)
        (afterInit, tallies, afterSlot, inPart0)
      } finally if (held) Lanes.release()
    }
    val shared = run(alone = false)
    val alone = run(alone = true)
    assert(alone._4) // every walk went to the caller's part
    assert(shared._1 == alone._1)
    assert(shared._2 == alone._2)
    assert(shared._3 == alone._3)
  }
}
