package repro.engine

import repro.walk.Rng

/** Current-block scheduling strategies (Appendix A).
  *
  * The [[CurrentBlockDriver]] consults a strategy once per time slot with
  * the walk pools, and it returns the next current block, or -1 when no
  * walk remains. Iteration is the exception: the driver runs its order as
  * whole supersteps and never calls its `choose`; only the slot-by-slot
  * test references (`BucketByBucketBiBlock`, `SlotBySlotFirstOrder`) do.
  * Strategies keep no state: the driver passes the previous choice, so one
  * strategy serves any number of runs. `loadsEmpty` distinguishes the
  * Alphabet algorithm (which visits — and loads — blocks in cyclic order
  * whether or not they hold walks) from the Iteration-based method
  * (identical cycle, but empty blocks are skipped and not loaded); no other
  * strategy picks an empty pool.
  */
sealed trait Scheduling {
  def strategyName: String

  /** Pick the next current block. `last` is the previous choice (-1 before
    * the first slot); `slot` is the 0-based time-slot index (drives the
    * GraphWalker mix).
    */
  def choose(pools: WalkPools, last: Int, slot: Long): Int

  /** Whether a chosen empty block still incurs a block load. */
  def loadsEmpty: Boolean = false

  /** Whether this is Iteration's order: after block `b`, the lowest
    * non-empty pool above `b`, else the lowest non-empty pool. A walk
    * routed to a pool above the current block is then drained later in the
    * same pass, so the driver runs each pass, a superstep, as one job.
    */
  def iterationOrder: Boolean = false
}

object Scheduling {
  private def nonEmptyBlocks(pools: WalkPools): Iterator[Int] =
    Iterator.range(0, pools.nBlocks).filter(pools.size(_) > 0)

  // Both break ties toward the lowest block.
  private def argmaxSize(pools: WalkPools): Int =
    nonEmptyBlocks(pools).maxByOption(pools.size).getOrElse(-1)

  private def argminHop(pools: WalkPools): Int =
    nonEmptyBlocks(pools).minByOption(pools.pool(_).minHop).getOrElse(-1)

  /** Cyclic 0..N_B-1 visiting every block; empty blocks are still loaded. */
  final class Alphabet extends Scheduling {
    val strategyName = "Alphabet"
    override def loadsEmpty = true
    def choose(pools: WalkPools, last: Int, slot: Long): Int =
      if (pools.isEmpty) -1 else (last + 1) % pools.nBlocks
  }

  /** Cyclic like Alphabet, but blocks without walks are skipped (§4.1, Alg. 1). */
  final class Iteration extends Scheduling {
    val strategyName = "Iteration"
    override def iterationOrder = true
    def choose(pools: WalkPools, last: Int, slot: Long): Int =
      Iterator.range(1, pools.nBlocks + 1).map(i => (last + i) % pools.nBlocks)
        .find(pools.size(_) > 0).getOrElse(-1)
  }

  /** Block holding the walk with the fewest completed steps. */
  final class MinHeight extends Scheduling {
    val strategyName = "Min-Height"
    def choose(pools: WalkPools, last: Int, slot: Long): Int = argminHop(pools)
  }

  /** Block holding the most walks (GraphWalker's "state-aware" core). */
  final class MaxSum extends Scheduling {
    val strategyName = "Max-Sum"
    def choose(pools: WalkPools, last: Int, slot: Long): Int = argmaxSize(pools)
  }

  private final val MaxSumP = 0.8
  private final val CoinSeed = 7L

  /** GraphWalker's mix: Max-Sum with probability `MaxSumP`, else
    * Min-Height. The coin is a deterministic counter-based draw (seed
    * `CoinSeed`) so runs are reproducible.
    */
  final class GraphWalkerMix extends Scheduling {
    val strategyName = "GraphWalker"
    def choose(pools: WalkPools, last: Int, slot: Long): Int =
      if (Rng.unit(CoinSeed, slot, 0, Rng.MoveStream) < MaxSumP) argmaxSize(pools)
      else argminHop(pools)
  }

  def byName(n: String): Scheduling = n match {
    case "Alphabet"    => new Alphabet
    case "Iteration"   => new Iteration
    case "Min-Height"  => new MinHeight
    case "Max-Sum"     => new MaxSum
    case "GraphWalker" => new GraphWalkerMix
    case other         => throw new IllegalArgumentException(s"unknown strategy $other")
  }
}
