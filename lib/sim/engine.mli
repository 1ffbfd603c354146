(** Deterministic discrete-event simulation engine.

    The engine owns a virtual clock and a queue of timestamped events
    (thunks).  Running the engine repeatedly pops the earliest event,
    advances the clock to its timestamp, and executes it.  Events scheduled
    for the same instant run in scheduling order, which makes whole-system
    runs reproducible.

    All simulated state lives in a single OS thread; event thunks must not
    block the host.

    When a {!Choice.t} chooser is installed (see {!set_chooser}), "the
    earliest event" becomes a decision point instead: any pending event
    may be selected to fire next, the clock only ever moves forward, and
    [run]'s [until] horizon is ignored.  With no chooser the behaviour is
    bit-identical to an engine without the seam. *)

type t

(** Handle on a scheduled event, usable for cancellation.  The handle is
    the event itself: cancelling clears its live bit, and the heap entry is
    skipped when it reaches the top. *)
type event_id

(** A handle that is never pending, for a slot that holds no event yet.
    Cancelling it is a no-op. *)
val no_event : event_id

val create : ?seed:int64 -> unit -> t

(** Current virtual time, in seconds. *)
val now : t -> float

(** Root random state for this simulation (see {!Rng}). *)
val rng : t -> Rng.t

(** Install (or remove) a controlled-nondeterminism chooser.  Normal
    operation never installs one. *)
val set_chooser : t -> Choice.t option -> unit

(** [on_set_chooser t f] runs [f ()] whenever a chooser is installed,
    before it takes effect.  A component that holds reserved events outside
    the heap (see {!reserve}) uses it to hand them all to the heap, so the
    chooser sees every pending event. *)
val on_set_chooser : t -> (unit -> unit) -> unit

val chooser : t -> Choice.t option
val chooser_active : t -> bool

(** Report a dynamic conflict key (object address, lock, descriptor,
    future id) touched by the currently-executing decision.  A no-op
    unless a chooser is installed. *)
val note_access : t -> Choice.Key.t -> unit

(** [schedule t ~delay f] runs [f ()] at [now t +. delay].
    Raises [Invalid_argument] if [delay] is negative or NaN.
    [key] is the static conflict key and [label] renders the
    human-readable description used when a chooser is exploring
    schedules; it is called only when a schedule is written or printed.
    They default to {!Choice.Key.none} and an event with no label
    (rendered [ev<seq>]), and are dead weight without a chooser. *)
val schedule :
  t -> ?key:Choice.Key.t -> ?label:(unit -> string) -> delay:float ->
  (unit -> unit) -> event_id

(** [schedule_at t ~time f] runs [f ()] at absolute virtual time [time],
    which must not be in the past.  (Under a chooser, a past [time] is
    clamped to the current clock instead: replayed schedules may run the
    scheduling event later than its nominal timestamp.) *)
val schedule_at :
  t -> ?key:Choice.Key.t -> ?label:(unit -> string) -> time:float ->
  (unit -> unit) -> event_id

(** [reserve t ~time f] creates an event that runs [f ()] at [time] and
    fixes its place among events at equal times now, but does not queue
    it: it runs only once {!schedule_reserved} hands it to the queue.
    [time] is checked as by {!schedule_at}.  A component that knows its
    events fire in creation order (the Ethernet's delivery lane) keeps all
    but the next one out of the heap this way, and the order in which
    events run is the same as if each had been scheduled when created. *)
val reserve :
  t -> ?key:Choice.Key.t -> ?label:(unit -> string) -> time:float ->
  (unit -> unit) -> event_id

(** Queue an event made by {!reserve}, under the place it reserved.
    Raises [Invalid_argument] if its time is already in the past. *)
val schedule_reserved : t -> event_id -> unit

(** Cancel a pending event.  Cancelling an already-fired or already-cancelled
    event is a no-op. *)
val cancel : t -> event_id -> unit

(** [true] until the event fires or is cancelled; never [true] for
    {!no_event}. *)
val is_pending : t -> event_id -> bool

(** Run events until the queue is empty, or until [until] (if given) —
    events strictly after [until] remain queued and the clock is left at
    [until].  Returns the number of events executed.  Under a chooser,
    [until] is ignored and the engine runs to quiescence.

    An exception raised by an event thunk aborts the run and propagates;
    the clock stays at the failing event's timestamp. *)
val run : ?until:float -> t -> int

(** Execute exactly one event if one is pending.  Returns [false] when the
    queue is empty. *)
val step : t -> bool

(** Number of events executed so far. *)
val events_executed : t -> int

(** Number of entries in the event heap, including cancelled ones not yet
    reaped.  Reserved events not yet handed to the heap (such as Ethernet
    deliveries waiting in its lane) are not counted. *)
val pending : t -> int
