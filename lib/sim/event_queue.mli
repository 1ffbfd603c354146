(** Binary-heap priority queue for simulation events.

    Entries are ordered by [(time, seq)]: earliest time first, and for equal
    times, insertion order (FIFO).  This stable tie-break is what makes the
    whole simulator deterministic, so it is part of the contract.

    A [seq] is normally drawn when an entry is added.  {!reserve} draws one
    ahead of time and {!add_reserved} inserts under it later, so an entry
    can keep the place in FIFO order it had when it was created even if it
    joins the heap after entries created later.

    The heap is stored as parallel arrays (times unboxed in a
    [Float.Array]); {!add}, {!add_reserved} and {!take} allocate nothing
    once the arrays have grown to the queue's peak size.  ({!min_time}
    boxes its result unless the call is inlined.) *)

type 'a t

(** An empty queue.  No storage is allocated until the first add. *)
val create : unit -> 'a t

(** [add q ~time v] inserts [v] with timestamp [time] and a fresh seq.
    Raises [Invalid_argument] if [time] is NaN. *)
val add : 'a t -> time:float -> 'a -> unit

(** Draw the next seq without inserting anything. *)
val reserve : 'a t -> int

(** [add_reserved q ~time ~seq v] inserts [v] under a seq obtained from
    {!reserve}; each reserved seq must be added at most once.  Raises
    [Invalid_argument] if [time] is NaN. *)
val add_reserved : 'a t -> time:float -> seq:int -> 'a -> unit

(** Timestamp of the earliest entry.  Raises [Invalid_argument] when the
    queue is empty. *)
val min_time : 'a t -> float

(** Remove the earliest entry and return its value.  Raises
    [Invalid_argument] when the queue is empty. *)
val take : 'a t -> 'a

(** Earliest entry, without removing it. *)
val peek : 'a t -> (float * 'a) option

(** Remove and return the earliest entry. *)
val pop : 'a t -> (float * 'a) option

val is_empty : 'a t -> bool
val length : 'a t -> int

(** Remove every entry. *)
val clear : 'a t -> unit

(** [filter q keep] drops every entry whose value fails [keep]; the
    survivors keep their timestamps and seqs, so pop order among them is
    unchanged. *)
val filter : 'a t -> ('a -> bool) -> unit

(** Fold over entries in unspecified order (diagnostics only). *)
val fold : 'a t -> init:'b -> f:('b -> float -> 'a -> 'b) -> 'b
