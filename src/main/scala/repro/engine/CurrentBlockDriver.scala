package repro.engine

import repro.core.{BlockLoading, LoadLogCollector}
import repro.disk.DiskSim

/** The current-block loop (Appendix A), shared by every engine. It owns the
  * run's pools, by current block or by skewed home block (`skewed`, the
  * bi-block engine), and advances their walks in lane jobs of `Walker`,
  * which route each walk that leaves memory back into the pools; after a
  * job the engine's `charge` charges each time slot of it in order.
  *
  * Under Iteration (`Scheduling.iterationOrder`) a job is a superstep:
  * `Walker.advanceSuperstep` takes every pool's walks at once, and a walk
  * routed to a pool above the slot it left runs on in that slot at once,
  * where the strategy would drain it later in the same pass. A walk passes
  * through the same (slot, bucket) cells as under one job per slot, and
  * every charge is a sum or a set union over a cell's walks, so the charges
  * are those of the slot order. Under every other strategy the pool sizes
  * decide the next block, so a job is the one slot the strategy picks. One
  * driver serves one run; the strategy's previous choice is held here.
  */
final class CurrentBlockDriver(walker: Walker, scheduling: Scheduling, skewed: Boolean = false) {
  private val bg = walker.bg
  private val sim = walker.sim
  val pools = new WalkPools(bg.nBlocks, skewed)

  /** Run jobs under bucket rule `rule` until no walk is left, marking what
    * each bucket activates or steps from if `marks`, then `finish` the run.
    * After each job, `charge(b, walks)` is called once per time slot `b` of
    * it, in order, after the slot is counted. In a slot job, `walks` is the
    * drained pool the job swept (read, not changed); a superstep job's
    * slots have no pool of their own, and `walks` is null.
    */
  def run(rule: Int, marks: Boolean)(charge: (Int, WalkPool) => Unit): DiskSim.Metrics = {
    if (scheduling.iterationOrder) {
      while (!pools.isEmpty) {
        walker.advanceSuperstep(pools, rule, marks)
        var b = 0
        while (b < bg.nBlocks) {
          if (walker.reads(b) > 0) {
            sim.timeSlots += 1
            charge(b, null)
          }
          b += 1
        }
      }
    } else {
      var last = -1
      var slot = 0L
      var b = scheduling.choose(pools, last, slot)
      while (b >= 0) {
        val walks = pools.drain(b)
        assert(walks.nonEmpty || scheduling.loadsEmpty, s"${scheduling.strategyName} chose empty block $b")
        walker.advanceAll(walks, b, rule, marks, pools)
        sim.timeSlots += 1
        charge(b, walks)
        last = b
        slot += 1
        b = scheduling.choose(pools, last, slot)
      }
    }
    walker.finish()
  }

  /** Charge a PB or bi-block slot `b` of the last job (Alg. 1 l.3–l.9): its
    * walk read and block `b`, then each bucket with walks in ascending
    * block order, the ancillary loop.
    */
  def chargeBuckets(b: Int, policy: BlockLoading.Policy, log: LoadLogCollector): Unit = {
    sim.walkIO(walker.reads(b))
    sim.readBlock(bg.blockOffset(b), bg.blockBytes(b))
    var i = 0
    while (i < bg.nBlocks) {
      if (i != b && walker.arrivals(b, i) > 0) chargeBucket(b, i, policy, log, reads = 0)
      i += 1
    }
  }

  /** Charge bucket `i` of slot `b` of the last job: block `i`'s load (its
    * mode from η, through `BlockLoading.load`), `reads` walk reads, the
    * bucket's steps and its survivors' walk writes, then the load's
    * (i, η, t) sample.
    */
  def chargeBucket(b: Int, i: Int, policy: BlockLoading.Policy, log: LoadLogCollector, reads: Int): Unit = {
    val loaded = BlockLoading.load(bg, i, policy, walker.arrivals(b, i), walker.touched(b, i), sim, log)
    sim.walkIO(reads)
    walker.chargeSteps(b, i)
    sim.walkIO(walker.survivors(b, i))
    loaded.logSample()
  }
}
