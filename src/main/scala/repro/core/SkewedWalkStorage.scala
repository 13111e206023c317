package repro.core

import repro.engine.{WalkBuffer, WalkPools}
import repro.graph.BlockedGraph

/** Skewed walk storage (§4.3.1): a walk w_u^v lives in the pool of block
  * `min(B(u), B(v))`, so that under the triangular schedule it is always
  * picked up — either when its smaller block is the current block, or when
  * its larger block is loaded as that slot's ancillary block. The pools are
  * the current-block driver's; this is the association rule over them.
  */
final class SkewedWalkStorage(bg: BlockedGraph, val pools: WalkPools) {

  /** The association rule for record `k` of `walks`: min of the two blocks.
    * Initial walks (prev = -1) cannot occur here — initialization (App. B)
    * guarantees hop >= 1.
    */
  def homeBlock(walks: WalkBuffer, k: Int): Int = {
    val prev = walks.prev(k)
    require(prev >= 0, s"walk ${walks.id(k)} persisted before its first step")
    math.min(bg.blockOf(prev), bg.blockOf(walks.cur(k)))
  }

  /** Copy record `k` of `walks` into its home pool. */
  def persist(walks: WalkBuffer, k: Int): Unit = pools.add(homeBlock(walks, k), walks, k)
}
