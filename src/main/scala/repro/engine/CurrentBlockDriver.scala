package repro.engine

import repro.core.{BlockLoading, LoadLogCollector}
import repro.disk.DiskSim

/** The current-block loop (Appendix A), shared by every engine. Each time
  * slot the strategy picks a block, the driver drains its pool, counts the
  * slot and hands `(block, walks)` to the engine's slot body, which sweeps
  * the walks once, routing each walk that leaves memory back into `pools`,
  * and charges the block and walk loads. Walks are pooled by current block,
  * or by skewed home block (`skewed`) in the bi-block engine. One driver
  * serves one run; the strategy's previous choice is held here.
  */
final class CurrentBlockDriver(walker: Walker, scheduling: Scheduling, skewed: Boolean = false) {
  private val bg = walker.bg
  private val sim = walker.sim
  val pools = new WalkPools(bg.nBlocks, skewed)

  /** Run time slots until the strategy finds no walk, then `finish` the run. */
  def run(slotBody: (Int, WalkPool) => Unit): DiskSim.Metrics = {
    var last = -1
    var slot = 0L
    var b = scheduling.choose(pools, last, slot)
    while (b >= 0) {
      val walks = pools.drain(b)
      assert(walks.nonEmpty || scheduling.loadsEmpty, s"${scheduling.strategyName} chose empty block $b")
      sim.timeSlots += 1
      slotBody(b, walks)
      last = b
      slot += 1
      b = scheduling.choose(pools, last, slot)
    }
    walker.finish()
  }

  /** A PB or bi-block slot (Alg. 1 l.3–l.9): read the walks and block `b`,
    * sweep the walks once under bucket rule `rule` (`Walker.Pairs` or
    * `Walker.Extending`), which routes the survivors to their pools, then
    * charge each bucket with walks in ascending block order, the ancillary
    * loop.
    */
  def sweepBuckets(b: Int, walks: WalkPool, rule: Int, policy: BlockLoading.Policy,
                   log: LoadLogCollector): Unit = {
    sim.walkIO(walks.length)
    sim.readBlock(bg.blockOffset(b), bg.blockBytes(b))
    walker.advanceAll(walks, b, rule, marks = policy ne BlockLoading.AlwaysFull, pools)
    var i = 0
    while (i < bg.nBlocks) {
      if (i != b && walker.arrivals(i) > 0) chargeBucket(i, policy, log, reads = 0)
      i += 1
    }
  }

  /** Charge bucket `i` of the last sweep: block `i`'s load (its mode from
    * η, through `BlockLoading.load`), `reads` walk reads, the bucket's steps
    * and its survivors' walk writes, then the load's (i, η, t) sample.
    */
  def chargeBucket(i: Int, policy: BlockLoading.Policy, log: LoadLogCollector, reads: Int): Unit = {
    val loaded = BlockLoading.load(bg, i, policy, walker.arrivals(i), walker.touched(i), sim, log)
    sim.walkIO(reads)
    walker.chargeSteps(i)
    sim.walkIO(walker.survivors(i))
    loaded.logSample()
  }
}
