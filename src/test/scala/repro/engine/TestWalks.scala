package repro.engine

/** Builds walk records for tests that place or load walks by hand. */
object TestWalks {

  /** A buffer holding one walk as record 0. */
  def walk(id: Long, prev: Int, cur: Int, hop: Int): WalkBuffer = {
    val b = new WalkBuffer
    b.add(id, hop, prev, cur)
    b
  }

  /** A buffer holding record 0 of each of `ws`, in order. */
  def walks(ws: WalkBuffer*): WalkBuffer = {
    val b = new WalkBuffer
    ws.foreach(w => b.addFrom(w, 0))
    b
  }
}
