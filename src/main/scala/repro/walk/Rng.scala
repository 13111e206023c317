package repro.walk

/** Counter-based deterministic randomness (SplitMix64 finalizer).
  *
  * Every random decision of a walk is a pure function of
  * `(taskSeed, walkId, hop, stream)`. This makes a walk's trajectory
  * independent of the order in which engines schedule blocks — so SOGW,
  * SGSC, PB and the bi-block engine produce *bit-identical* trajectories,
  * which the equivalence test suite exploits as a whole-system correctness
  * oracle (a lost, duplicated or mis-bucketed walk changes some trajectory).
  */
object Rng {
  /** Stream tags keep independent decisions uncorrelated. */
  final val MoveStream = 0x1L
  final val StopStream = 0x2L

  private def mix(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Uniform double in [0, 1). */
  def unit(seed: Long, walkId: Long, hop: Int, stream: Long): Double = {
    val h = mix(mix(mix(seed) ^ walkId) ^ (hop.toLong << 20) ^ stream)
    (h >>> 11) * 1.1102230246251565e-16 // 2^-53
  }

  /** A fresh uniform double in [0, 1) derived from the bits of draw `u`, for
    * a retry after a decision on `u` was rejected.
    */
  def rehash(u: Double): Double =
    (mix(java.lang.Double.doubleToRawLongBits(u)) >>> 11) * 1.1102230246251565e-16
}
