package repro.dfwalk

import repro.graph.CsrGraph
import repro.walk.{Node2vecModel, TransitionModel}

/** Exact reference computations for second-order walks on small graphs.
  *
  * The second-order chain's state space is the set of directed edges (§2.1,
  * "edge-edge distribution"); these dense dynamic programs are the ground
  * truth that the sampling engines are verified against (they are O(E·d̄)
  * per step — test-scale only).
  */
object ExactNode2vec {

  /** Exact transition probability p(z | prev→cur), written out from Eq. 1
    * and independent of the samplers: z is weighted 1/p if it is `prev`, 1
    * if it neighbors `prev` and 1/q otherwise, normalized over N(cur).
    * DeepWalk, and every model's first step (prev = -1), is uniform over
    * N(cur).
    */
  def probability(model: TransitionModel, g: CsrGraph, prev: Int, cur: Int, z: Int): Double = {
    if (!g.hasEdge(cur, z)) return 0.0
    val d = g.degree(cur)
    model match {
      case Node2vecModel(p, q) if prev >= 0 =>
        def w(x: Int): Double = if (x == prev) 1.0 / p else if (g.hasEdge(prev, x)) 1.0 else 1.0 / q
        w(z) / (0 until d).map(i => w(g.neighbor(cur, i))).sum
      case _ => 1.0 / d
    }
  }

  /** Index of directed edge (u, v) = position of v in u's adjacency run. */
  def edgeIndex(g: CsrGraph, u: Int, v: Int): Int = {
    var j = g.offsets(u)
    while (j < g.offsets(u + 1)) {
      if (g.neighbors(j) == v) return j
      j += 1
    }
    throw new IllegalArgumentException(s"no edge ($u,$v)")
  }

  /** One exact step of the edge-state distribution: given mass `pi` over
    * directed edges, returns the next-step mass under `model`.
    */
  def stepEdgeDistribution(g: CsrGraph, model: TransitionModel, pi: Array[Double]): Array[Double] = {
    val out = new Array[Double](g.nEdgesDirected.toInt)
    var u = 0
    while (u < g.nV) {
      var j = g.offsets(u)
      while (j < g.offsets(u + 1)) {
        val mass = pi(j)
        if (mass > 0) {
          val v = g.neighbors(j)
          var k = g.offsets(v)
          while (k < g.offsets(v + 1)) {
            val z = g.neighbors(k)
            out(k) += mass * probability(model, g, u, v, z)
            k += 1
          }
        }
        j += 1
      }
      u += 1
    }
    out
  }

  /** Expected per-vertex visit counts of a walk-with-restart from `query`
    * under `model`: the walk visits `query`, takes a first-order first step,
    * then second-order steps; after each completed step it survives with
    * probability `decay`, up to `maxLen` steps. This matches the PRNV
    * estimator in [[repro.walk.WalkTask.prnv]] exactly, so sampled visit
    * frequencies converge to it.
    */
  def expectedVisits(g: CsrGraph, model: TransitionModel, query: Int,
                     decay: Double, maxLen: Int): Array[Double] = {
    val visits = new Array[Double](g.nV)
    visits(query) = 1.0
    val d = g.degree(query)
    if (d == 0 || maxLen == 0) return visits
    var pi = new Array[Double](g.nEdgesDirected.toInt)
    var j = g.offsets(query)
    while (j < g.offsets(query + 1)) { pi(j) = 1.0 / d; j += 1 }
    var t = 1
    var survive = 1.0 // probability the walk is still alive to take step t
    var continue = true
    while (t <= maxLen && continue) {
      // Accumulate visit mass of step t.
      var any = 0.0
      var u = 0
      while (u < g.nV) {
        var k = g.offsets(u)
        while (k < g.offsets(u + 1)) {
          if (pi(k) > 0) { visits(g.neighbors(k)) += survive * pi(k); any += pi(k) }
          k += 1
        }
        u += 1
      }
      if (any == 0) continue = false
      else {
        survive *= decay
        if (t < maxLen) pi = stepEdgeDistribution(g, model, pi)
        t += 1
      }
    }
    visits
  }
}
