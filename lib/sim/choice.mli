(** Controlled-nondeterminism interface.

    The simulator has three kinds of scheduling decision points:

    - {b Event}: which pending engine event fires next.  Normally the
      earliest by [(time, seq)]; a chooser may fire any pending event,
      which models arbitrary relative timing of deliveries and timers.
    - {b Fiber}: which ready fiber a machine dispatches next.  Normally
      FIFO (or the installed policy's order).
    - {b Fault}: whether the medium delivers, drops or duplicates a
      given retransmittable packet.  Normally driven by the seeded
      fault dice; under a chooser, faults become explorable branches.

    With no chooser installed every decision point takes its normal
    single answer and the seam is a dead branch — bit-identical to a
    build without it (verified by the determinism sweeps).  The
    schedule-space model checker ({!Modelcheck} in the analysis
    library) installs a chooser to drive depth-first systematic
    exploration with partial-order reduction. *)

type domain = Event | Fiber | Fault

val domain_name : domain -> string
val domain_of_name : string -> domain option

(** Conflict keys: which protocol state a decision touches.  A key is an
    int (namespace tag in the low bits, subject above), so building and
    comparing one allocates nothing; {!Key.to_string} renders the
    schedule-file form ([net:n1], [obj:4096], [rpc:dedup], ...). *)
module Key : sig
  type t = int

  (** Unknown state: conflicts with everything.  Renders as [""]. *)
  val none : t

  (** [net:n<node>]: traffic into one node *)
  val net : int -> t

  (** [node:<m>]: a machine's ready-queue state *)
  val node : int -> t

  (** [obj:<addr>], [lock:<addr>], [tcb:<tid>], [fut:<id>],
      [cond:<token>]: the AmberSan vocabulary *)
  val obj : int -> t

  val lock : int -> t
  val tcb : int -> t
  val fut : int -> t
  val cond : int -> t

  (** [rpc:dedup]: the datagram dedup tables *)
  val rpc_dedup : t

  (** [rpc:calls]: the call-state tables *)
  val rpc_calls : t

  val to_string : t -> string
end

(** Candidate identities: an event's seq, a fiber's tid or a packet's
    fate, as an int that also encodes the domain.  Two candidates have
    equal idents exactly when their rendered forms ([e12], [t3],
    [drop:probe0:0>1:1]) are equal. *)
module Ident : sig
  type t = int

  val event : int -> t
  val fiber : int -> t

  (** [verbs.(v)] names fault verb [v]: [deliver], [drop], [dup] — the
      order of a fault decision's candidates. *)
  val verbs : string array

  (** Fate [verb] of the numbered packet [kind src>dst seq].  Fates are
      interned process-wide, so the same fate always gets the same
      ident. *)
  val fate : verb:int -> kind:string -> src:int -> dst:int -> seq:int -> t

  val to_string : t -> string
end

type candidate = {
  dom : domain;
  ident : Ident.t;
      (** stable identity of the alternative along a replayed prefix
          (event id, fiber tid, fault verb) *)
  key : Key.t;
      (** static conflict key; {!Key.none} = unknown, conflicts with all *)
  label : unit -> string;
      (** human-readable description, rendered only when a schedule is
          written or printed *)
}

type t = {
  pick : domain -> candidate array -> int;
      (** called only when there are at least two candidates; must
          return a valid index into the array *)
  faults : bool;
      (** when false, fault choice points are not offered at all *)
  note_access : Key.t -> unit;
      (** dynamic conflict keys observed while the chosen alternative
          executes (same-object invokes, same-lock acquires,
          same-descriptor coherence ops — the AmberSan happens-before
          vocabulary) *)
}

(** The empty label. *)
val no_label : unit -> string
