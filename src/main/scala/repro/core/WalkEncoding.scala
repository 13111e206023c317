package repro.core

/** 128-bit walk representation (§6.1, Figure 7).
  *
  * The paper packs a second-order walk state into 128 bits:
  *
  *   hi 64 = | source vertex (32) | previous vertex (32) |
  *   lo 64 = | current-vertex offset in block (22) | pre block (10) |
  *           | cur block (10) | hop (10) | spare (12) |
  *
  * which supports graphs up to 2^32 vertices per the fields we can address
  * here (the paper's "4.3 trillion" headline combines block id + offset),
  * at most 1024 blocks, and 1024 steps per walk. The engines' walk pools
  * hold 16-byte records of the same size ([[repro.engine.WalkBuffer]]), so
  * the 16 bytes per walk that the DiskSim charges for walk I/O is what they
  * store; those records carry the walk id (which the counter RNG needs) in
  * place of the source and block fields.
  */
object WalkEncoding {
  final val MaxBlocks = 1 << 10
  final val MaxHops   = 1 << 10
  final val MaxOffset = 1 << 22

  final case class Decoded(source: Int, prev: Int, curOffset: Int,
                           preBlock: Int, curBlock: Int, hop: Int)

  def encode(source: Int, prev: Int, curOffset: Int,
             preBlock: Int, curBlock: Int, hop: Int): (Long, Long) = {
    require(curOffset >= 0 && curOffset < MaxOffset, s"curOffset $curOffset out of range")
    require(preBlock >= 0 && preBlock < MaxBlocks, s"preBlock $preBlock out of range")
    require(curBlock >= 0 && curBlock < MaxBlocks, s"curBlock $curBlock out of range")
    require(hop >= 0 && hop < MaxHops, s"hop $hop out of range")
    val hi = (source.toLong << 32) | (prev.toLong & 0xffffffffL)
    val lo = (curOffset.toLong << 42) |
             (preBlock.toLong << 32) |
             (curBlock.toLong << 22) |
             (hop.toLong << 12)
    (hi, lo)
  }

  def decode(hi: Long, lo: Long): Decoded = Decoded(
    source    = (hi >>> 32).toInt,
    prev      = hi.toInt,
    curOffset = (lo >>> 42).toInt,
    preBlock  = ((lo >>> 32) & 0x3ff).toInt,
    curBlock  = ((lo >>> 22) & 0x3ff).toInt,
    hop       = ((lo >>> 12) & 0x3ff).toInt,
  )
}
