package repro.walk

import repro.graph.CsrGraph

import scala.annotation.tailrec

/** A random-walk transition model (§2.1).
  *
  * `sampleNext` consumes a single uniform draw `u` and returns the next
  * vertex, or -1 if the walk is stuck (dangling vertex). The result is a pure
  * function of `(g, prev, cur, u)`. The first step of a walk has `prev = -1`
  * and is first-order for every model — Node2vec's edge-edge distribution
  * needs an incoming edge, so its initial transition is the DeepWalk
  * distribution, exactly as in the original Node2vec sampling procedure.
  */
sealed trait TransitionModel {
  def isSecondOrder: Boolean

  def sampleNext(g: CsrGraph, prev: Int, cur: Int, u: Double): Int
}

object TransitionModel {

  /** Index ⌊u·d⌋ of a uniform pick among `d > 0` items for `u` in [0, 1].
    * The clamp covers `u·d` rounding up to `d` (u = 1, or u just below 1).
    */
  @inline private[walk] def uniformIndex(d: Int, u: Double): Int = math.min(d - 1, (u * d).toInt)

  /** The neighbor of `cur` picked uniformly by `u`, or -1 if `cur` is dangling. */
  def uniformNeighbor(g: CsrGraph, cur: Int, u: Double): Int = {
    val d = g.degree(cur)
    if (d == 0) -1 else g.neighbor(cur, uniformIndex(d, u))
  }
}

/** First-order uniform model (unweighted DeepWalk): p(z|v) = 1/|N(v)|. */
case object DeepWalkModel extends TransitionModel {
  val isSecondOrder = false

  def sampleNext(g: CsrGraph, prev: Int, cur: Int, u: Double): Int =
    TransitionModel.uniformNeighbor(g, cur, u)
}

/** Second-order Node2vec model (Eq. 1): biased weight 1/p if the candidate
  * is the previous vertex (h=0), 1 if it neighbors the previous vertex
  * (h=1), 1/q otherwise (h=2); normalized over N(cur).
  *
  * `sampleNext` is rejection sampling over N(cur) (KnightKing, SOSP'19):
  * propose a uniform neighbor z and accept it with ratio a = w(z)/w_max. A
  * trial on draw x takes index i = ⌊x·d⌋ and tests the remainder
  * r = x·d − i, uniform on [0, 1) and independent of i, against a; a ratio
  * of 1 accepts outright. A rejected r is uniform on [a, 1), so it rescales
  * to the next draw (r − a)/(1 − a). Rescaling coarsens the draw's grid;
  * once the next remainder's grid would exceed 2^-40, the next trial runs on
  * the fresh draw `Rng.rehash(x)` instead. Each trial thus accepts z with
  * probability ∝ w(z) to within 2^-40 (d·2^-53 above 2^13 neighbors), which
  * is Eq. 1; the expected number of trials is d·w_max / Σw.
  */
final case class Node2vecModel(p: Double, q: Double) extends TransitionModel {
  require(p > 0 && q > 0, "p and q must be positive")
  val isSecondOrder = true

  // The largest of the three weights, so the heaviest class has ratio exactly 1.
  private val wMax = math.max(1.0, math.max(1.0 / p, 1.0 / q))
  // With q = 1 the h=1 and h=2 weights agree, so no membership test is needed.
  private val skipHasEdge = q == 1.0

  @inline private def weight(g: CsrGraph, prev: Int, z: Int): Double =
    if (z == prev) 1.0 / p
    else if (skipHasEdge || g.hasEdge(prev, z)) 1.0
    else 1.0 / q

  def sampleNext(g: CsrGraph, prev: Int, cur: Int, u: Double): Int = {
    val d = g.degree(cur)
    // A single neighbor is the only possible step, whatever its weight.
    if (prev < 0 || d <= 1) TransitionModel.uniformNeighbor(g, cur, u)
    else sampleByRejection(g, prev, cur, d, u, Node2vecModel.DrawSpacing * d)
  }

  /** Trials from draw `x`, whose remainder x·d − ⌊x·d⌋ lies on a grid of
    * `spacing`. A Rng draw is a multiple of 2^-53, and x·d multiplies that
    * grid by d.
    */
  @tailrec private def sampleByRejection(g: CsrGraph, prev: Int, cur: Int, d: Int,
                                         x: Double, spacing: Double): Int = {
    val i = TransitionModel.uniformIndex(d, x)
    val z = g.neighbor(cur, i)
    val a = weight(g, prev, z) / wMax
    val r = x * d - i
    if (a >= 1.0 || r < a) z
    else {
      val next = spacing * d / (1.0 - a)
      if (next <= Node2vecModel.MaxSpacing) sampleByRejection(g, prev, cur, d, (r - a) / (1.0 - a), next)
      else sampleByRejection(g, prev, cur, d, Rng.rehash(x), Node2vecModel.DrawSpacing * d)
    }
  }
}

object Node2vecModel {
  private final val DrawSpacing = 1.0 / (1L << 53)
  // The coarsest remainder grid a trial may test; it bounds each trial's
  // error in proposal and acceptance by 2^-40.
  private final val MaxSpacing = 1.0 / (1L << 40)
}
