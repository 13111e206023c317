package repro.walk

import repro.graph.CsrGraph

/** A random-walk workload (§7.1 "Benchmarks").
  *
  * @param name      label for tables
  * @param model     transition model (DeepWalk or Node2vec)
  * @param starts    (sourceVertex, walkCount) pairs, counts >= 0
  * @param maxLen    maximum steps per walk (walk terminates at `maxLen` hops), >= 1
  * @param stopProb  per-step termination probability (PRNV decay: 1 - 0.85);
  *                  0 for fixed-length generation
  * @param seed      task seed feeding the counter-based RNG
  */
final case class WalkTask(
    name: String,
    model: TransitionModel,
    starts: Array[(Int, Int)],
    maxLen: Int,
    stopProb: Double,
    seed: Long,
) {
  require(maxLen >= 1, s"$name: maxLen $maxLen < 1, but every walk takes its first step")
  require(starts.forall(_._2 >= 0), s"$name: negative walk count in start ${starts.find(_._2 < 0).get}")

  val totalWalks: Long = starts.map(_._2.toLong).sum

  /** Whether walk `walkId` terminates after completing hop `hop`. */
  def stopsAfter(walkId: Long, hop: Int): Boolean =
    hop >= maxLen ||
      (stopProb > 0 && Rng.unit(seed, walkId, hop, Rng.StopStream) < stopProb)

  /** The uniform draw for walk `walkId`'s hop `hop` move. */
  def moveDraw(walkId: Long, hop: Int): Double =
    Rng.unit(seed, walkId, hop, Rng.MoveStream)
}

object WalkTask {

  /** RWNV — random walk generation with Node2vec (§7.1): `walksPerVertex`
    * fixed-length walks from every vertex. The paper uses 10 x len 80; the
    * lite default is 2 x len 80 (the σ_W bridge in DiskSim accounts for the
    * difference).
    */
  def rwnv(g: CsrGraph, p: Double = 1.0, q: Double = 1.0,
           walksPerVertex: Int = 2, len: Int = 80, seed: Long = 42): WalkTask =
    WalkTask(
      name = "RWNV",
      model = Node2vecModel(p, q),
      starts = Array.tabulate(g.nV)(v => (v, walksPerVertex)),
      maxLen = len,
      stopProb = 0.0,
      seed = seed,
    )

  /** PRNV — PageRank query with Node2vec (§7.1): second-order random walk
    * with restart from `nQueries` query nodes, decay 0.85, max length 20,
    * total sample size 4|V| spread over the queries.
    */
  def prnv(g: CsrGraph, p: Double = 1.0, q: Double = 1.0,
           nQueries: Int = 10, decay: Double = 0.85, maxLen: Int = 20,
           seed: Long = 43): WalkTask = {
    val totalSamples = 4L * g.nV
    val perQuery = math.max(1L, totalSamples / nQueries).toInt
    // Deterministic spread of query nodes over the ID range.
    val queries = Array.tabulate(nQueries)(i => ((i.toLong * g.nV) / nQueries).toInt)
    WalkTask(
      name = "PRNV",
      model = Node2vecModel(p, q),
      starts = queries.map(v => (v, perQuery)),
      maxLen = maxLen,
      stopProb = 1.0 - decay,
      seed = seed,
    )
  }

  /** First-order DeepWalk generation (§7.8, Appendix A): 10 walks per vertex
    * of length 80 by default, matching the paper's setting.
    */
  def deepwalk(g: CsrGraph, walksPerVertex: Int = 10, len: Int = 80,
               seed: Long = 44): WalkTask =
    WalkTask(
      name = "DeepWalk",
      model = DeepWalkModel,
      starts = Array.tabulate(g.nV)(v => (v, walksPerVertex)),
      maxLen = len,
      stopProb = 0.0,
      seed = seed,
    )
}
