(** Structured simulation trace.

    A bounded ring buffer of timestamped records.  Tracing is off by default
    and costs one branch per call when disabled; tests and the CLI enable it
    to inspect protocol-level event sequences (invocations, migrations,
    packets, faults).  The ring is allocated on the first
    [set_enabled t true], so a trace that is never enabled holds no buffer.

    Overflow semantics: the ring keeps the {e newest} [capacity] records and
    silently drops the oldest ([dropped] counts the casualties).  Category
    filters ({!by_category}) therefore run over the surviving window only —
    after overflow, a category's earliest records are gone even though later
    records of other categories survive. *)

type record = {
  time : float;
  category : string;  (** e.g. "invoke", "move", "net", "dsm" *)
  detail : string;
  node : int;  (** emitting node, -1 if unknown *)
  cpu : int;  (** CPU the emitting thread was running on, -1 if unknown *)
  tid : int;  (** TCB id of the emitting thread, -1 if unknown *)
  obj : int;  (** related object address, -1 if none *)
  span : int;  (** innermost open span id at emit time, -1 if none *)
  parent : int;  (** that span's parent id, -1 if none *)
}

type t

val create : ?capacity:int -> unit -> t

val set_enabled : t -> bool -> unit
val enabled : t -> bool

(** Record an event (no-op when disabled).  [detail] is lazy so that
    disabled traces never build strings.  The structured fields default
    to [-1] ("unknown") so existing emitters need not supply them. *)
val emit :
  t ->
  time:float ->
  ?node:int ->
  ?cpu:int ->
  ?tid:int ->
  ?obj:int ->
  ?span:int ->
  ?parent:int ->
  category:string ->
  detail:string Lazy.t ->
  unit ->
  unit

(** Records in chronological order (oldest first). *)
val records : t -> record list

(** Records whose category equals [category], over the surviving window. *)
val by_category : t -> string -> record list

val clear : t -> unit

(** Number of records currently stored (≤ capacity). *)
val length : t -> int

(** Number of records lost to ring overflow so far. *)
val dropped : t -> int

val pp_record : Format.formatter -> record -> unit
