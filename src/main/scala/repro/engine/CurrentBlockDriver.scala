package repro.engine

import repro.disk.DiskSim

/** The current-block loop (Appendix A), shared by every engine. Each time
  * slot the strategy picks a block, the driver drains its pool, counts the
  * slot and hands `(block, walks)` to the engine's slot body, which charges
  * the block and walk loads and advances the walks. Walks are pooled by
  * current block, or by skewed home block in the bi-block engine. One
  * driver serves one run; the strategy's previous choice is held here.
  */
final class CurrentBlockDriver(walker: Walker, scheduling: Scheduling) {
  private val bg = walker.bg
  private val sim = walker.sim
  val pools = new WalkPools(bg.nBlocks)

  /** Run time slots until the strategy finds no walk, then `finish` the run. */
  def run(slotBody: (Int, WalkBuffer) => Unit): DiskSim.Metrics = {
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

  /** Pool record `k` of `walks` by its current block. */
  def add(walks: WalkBuffer, k: Int): Unit = pools.add(bg.blockOf(walks.cur(k)), walks, k)

  /** Open a PB or bi-block slot: charge the walk read, split `walks` into
    * `buckets` by the other block of each walk's pair (Eq. 4), load `b`.
    */
  def splitBuckets(b: Int, walks: WalkBuffer, buckets: Array[WalkBuffer]): Unit = {
    sim.walkIO(walks.length)
    var k = 0
    while (k < walks.length) {
      val pre = bg.blockOf(walks.prev(k))
      buckets(if (pre == b) bg.blockOf(walks.cur(k)) else pre).addFrom(walks, k)
      k += 1
    }
    sim.readBlock(bg.blockOffset(b), bg.blockBytes(b))
  }

  /** Sweep `walks` under `mem`, then write each survivor back to its new
    * current block's pool, in record order.
    */
  def advanceAll(walks: WalkBuffer, mem: Residency): Unit = {
    walker.advanceAll(walks, mem)
    var k = 0
    while (k < walks.length) {
      if (!walks.ended(k)) { add(walks, k); sim.walkIO(1) }
      k += 1
    }
  }
}
