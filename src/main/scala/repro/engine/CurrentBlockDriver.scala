package repro.engine

import repro.disk.DiskSim

/** GraphWalker's current-block loop (Appendix A), shared by the SOGW/SGSC,
  * PB and first-order engines. Walks live in the pools of their current
  * block. Each time slot the strategy picks a block, the driver drains its
  * pool, counts the slot and hands `(block, walks)` to the engine's slot
  * body, which charges the block and walk loads and advances the walks.
  * One driver serves one run; the strategy's previous choice is held here.
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

  /** Advance every record of `walks` under `mem`; each survivor is written
    * back to its new current block's pool.
    */
  def advanceAll(walks: WalkBuffer, mem: Residency): Unit = {
    var k = 0
    while (k < walks.length) {
      if (walker.advance(walks, k, mem)) { add(walks, k); sim.walkIO(1) }
      k += 1
    }
  }
}
