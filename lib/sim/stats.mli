(** Streaming statistics accumulators and simple histograms, used by the
    benchmark harness to summarize latencies and by tests as oracles. *)

(** Named monotonic event counter — the unit of protocol accounting used
    by the RPC reliability layer (retries, timeouts, suppressed
    duplicates) and surfaced through [Stats_report]. *)
module Counter : sig
  type t

  val create : ?name:string -> unit -> t
  val incr : t -> unit

  (** Raises [Invalid_argument] on a negative increment. *)
  val add : t -> int -> unit

  val value : t -> int
  val name : t -> string
  val reset : t -> unit
  val pp : Format.formatter -> t -> unit
end

(** Welford-style mean/variance accumulator that also retains a bounded
    sample reservoir for percentile queries.

    Count, mean, variance, min, max and total are always exact.
    Percentiles are exact while at most [reservoir] samples have been
    added (the default keeps 2048); past that, the retained set is a
    uniform reservoir (Vitter's Algorithm R) driven by a private
    splitmix64 stream seeded from a constant — a deterministic function
    of the add sequence, drawing nothing from [Random] or the simulation
    RNG — so memory stays bounded and runs stay seed-reproducible. *)
module Summary : sig
  type t

  val create : ?reservoir:int -> unit -> t
  (** Raises [Invalid_argument] when [reservoir <= 0]. *)

  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float

  (** Population variance; 0 for fewer than 2 samples. *)
  val variance : t -> float

  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val total : t -> float

  (** Number of samples currently retained for percentile queries
      (= [count] until the reservoir fills). *)
  val retained : t -> int

  (** Reservoir capacity this summary was created with. *)
  val capacity : t -> int

  (** [percentile t p] with [p] in [\[0, 100\]], by nearest-rank on the
      sorted retained samples (exact until the reservoir overflows, an
      estimate after).  Raises [Invalid_argument] on an empty summary or
      out-of-range [p]. *)
  val percentile : t -> float -> float

  val pp : Format.formatter -> t -> unit
end

(** Exact log-bucketed histogram: bucket [i] covers
    [\[lo*growth^i, lo*growth^(i+1))], so percentile queries carry a
    bounded {e relative} error (half a bucket, ~2.5% at the default 5%
    growth) at fixed memory, with no sampling and no randomness — unlike
    [Summary]'s reservoir, results are an exact function of the multiset
    of added values, independent of add order.  Count, total, mean, min
    and max are exact.  Non-positive and sub-[lo] values land in an
    underflow counter (reported as [min]); values beyond the last bucket
    in overflow (reported as [max]). *)
module Log_histogram : sig
  type t

  val default_lo : float
  val default_growth : float
  val default_buckets : int

  val create : ?lo:float -> ?growth:float -> ?buckets:int -> unit -> t
  (** Defaults span ~1ns to ~3.6e4 s of latency-shaped data in 640
      buckets (5KiB).  Raises [Invalid_argument] on [lo <= 0],
      [growth <= 1] or [buckets <= 0]. *)

  val add : t -> float -> unit
  val count : t -> int
  val total : t -> float
  val mean : t -> float
  val min : t -> float
  val max : t -> float
  val underflow : t -> int
  val overflow : t -> int
  val buckets : t -> int

  val bucket_index : t -> float -> int
  (** [-1] for underflow, [buckets t] for overflow; always consistent
      with [bucket_bounds] ([bucket_bounds t i = (blo, bhi)] implies
      values in [\[blo, bhi)] index to [i]). *)

  val bucket_bounds : t -> int -> float * float
  (** [(lo, hi)] bounds of bucket [i]. *)

  val percentile : t -> float -> float
  (** Nearest-rank percentile, [p] in [\[0, 100\]]: the geometric
      midpoint of the bucket holding the rank, clamped into the exact
      observed [\[min, max\]] (so single-sample and single-bucket
      histograms report exactly).  Raises [Invalid_argument] when empty
      or [p] out of range. *)

  val merge : t -> t -> unit
  (** [merge dst src] adds [src]'s counts into [dst].  Raises
      [Invalid_argument] unless both share the same geometry. *)

  val clear : t -> unit
  val pp : Format.formatter -> t -> unit
end
