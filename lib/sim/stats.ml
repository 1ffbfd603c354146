module Counter = struct
  type t = { name : string; mutable n : int }

  let create ?(name = "") () = { name; n = 0 }
  let incr t = t.n <- t.n + 1

  let add t k =
    if k < 0 then invalid_arg "Counter.add: negative increment";
    t.n <- t.n + k

  let value t = t.n
  let name t = t.name
  let reset t = t.n <- 0

  let pp ppf t =
    if t.name = "" then Format.fprintf ppf "%d" t.n
    else Format.fprintf ppf "%s=%d" t.name t.n
end

module Summary = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
    mutable samples : float array;
    mutable sample_count : int;
    mutable sorted : bool;
    reservoir : int;
    mutable rstate : int64;
  }

  let default_reservoir = 2048

  let create ?(reservoir = default_reservoir) () =
    if reservoir <= 0 then invalid_arg "Summary.create: reservoir";
    {
      n = 0;
      mean = 0.0;
      m2 = 0.0;
      min = Float.infinity;
      max = Float.neg_infinity;
      total = 0.0;
      samples = [||];
      sample_count = 0;
      sorted = true;
      reservoir;
      rstate = 0x1234_5678_9ABC_DEF0L;
    }

  (* Private splitmix64 stream, seeded from a constant and advanced once
     per overflowing [add]: a pure function of the add sequence, so
     percentiles stay seed-reproducible and no engine RNG is drawn. *)
  let rand_below t bound =
    t.rstate <- Int64.add t.rstate 0x9E3779B97F4A7C15L;
    let z = t.rstate in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int bound))

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    t.total <- t.total +. x;
    if t.sample_count < t.reservoir then begin
      if t.sample_count >= Array.length t.samples then begin
        let cap = min t.reservoir (max 64 (2 * Array.length t.samples)) in
        let bigger = Array.make cap 0.0 in
        Array.blit t.samples 0 bigger 0 t.sample_count;
        t.samples <- bigger
      end;
      t.samples.(t.sample_count) <- x;
      t.sample_count <- t.sample_count + 1;
      t.sorted <- false
    end
    else begin
      (* Algorithm R: the reservoir is full; keep the new sample with
         probability reservoir/n, evicting a uniformly-chosen slot. *)
      let j = rand_below t t.n in
      if j < t.reservoir then begin
        t.samples.(j) <- x;
        t.sorted <- false
      end
    end

  let count t = t.n
  let mean t = t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int t.n
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max
  let total t = t.total
  let retained t = t.sample_count
  let capacity t = t.reservoir

  let percentile t p =
    if t.n = 0 then invalid_arg "Summary.percentile: empty";
    if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile: range";
    if not t.sorted then begin
      let live = Array.sub t.samples 0 t.sample_count in
      Array.sort compare live;
      Array.blit live 0 t.samples 0 t.sample_count;
      t.sorted <- true
    end;
    let rank =
      int_of_float (ceil (p /. 100.0 *. float_of_int t.sample_count)) - 1
    in
    let rank = Stdlib.max 0 (Stdlib.min (t.sample_count - 1) rank) in
    t.samples.(rank)

  let pp ppf t =
    if t.n = 0 then Format.fprintf ppf "(empty)"
    else
      Format.fprintf ppf "n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g" t.n
        t.mean (stddev t) t.min t.max
end

module Log_histogram = struct
  type t = {
    lo : float;
    growth : float;
    inv_log_growth : float;
    counts : int array;
    mutable underflow : int;
    mutable overflow : int;
    mutable n : int;
    mutable total : float;
    mutable min : float;
    mutable max : float;
  }

  let default_lo = 1e-9
  let default_growth = 1.05
  let default_buckets = 640

  let create ?(lo = default_lo) ?(growth = default_growth)
      ?(buckets = default_buckets) () =
    if not (lo > 0.0) then invalid_arg "Log_histogram.create: lo";
    if not (growth > 1.0) then invalid_arg "Log_histogram.create: growth";
    if buckets <= 0 then invalid_arg "Log_histogram.create: buckets";
    {
      lo;
      growth;
      inv_log_growth = 1.0 /. log growth;
      counts = Array.make buckets 0;
      underflow = 0;
      overflow = 0;
      n = 0;
      total = 0.0;
      min = Float.infinity;
      max = Float.neg_infinity;
    }

  let buckets t = Array.length t.counts

  (* Bucket [i] covers [lo*growth^i, lo*growth^(i+1)).  [-1] is the
     underflow range (everything below [lo], including non-positive
     values) and [buckets] the overflow range. *)
  let bucket_index t x =
    if not (x >= t.lo) then -1
    else begin
      let i = int_of_float (Float.floor (log (x /. t.lo) *. t.inv_log_growth)) in
      (* Float.floor(log ...) can land one bucket off right at a
         boundary; nudge so [bucket_bounds] stays authoritative. *)
      let nb = Array.length t.counts in
      let i = Stdlib.max 0 (Stdlib.min nb i) in
      let lo_i = t.lo *. (t.growth ** float_of_int i) in
      let i = if x < lo_i then i - 1 else i in
      let i =
        if i < nb && x >= t.lo *. (t.growth ** float_of_int (i + 1)) then i + 1
        else i
      in
      Stdlib.min nb i
    end

  let bucket_bounds t i =
    if i < 0 || i >= Array.length t.counts then
      invalid_arg "Log_histogram.bucket_bounds";
    ( t.lo *. (t.growth ** float_of_int i),
      t.lo *. (t.growth ** float_of_int (i + 1)) )

  let add t x =
    t.n <- t.n + 1;
    t.total <- t.total +. x;
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    let i = bucket_index t x in
    if i < 0 then t.underflow <- t.underflow + 1
    else if i >= Array.length t.counts then t.overflow <- t.overflow + 1
    else t.counts.(i) <- t.counts.(i) + 1

  let count t = t.n
  let total t = t.total
  let min t = t.min
  let max t = t.max
  let mean t = if t.n = 0 then 0.0 else t.total /. float_of_int t.n
  let underflow t = t.underflow
  let overflow t = t.overflow

  let percentile t p =
    if t.n = 0 then invalid_arg "Log_histogram.percentile: empty";
    if p < 0.0 || p > 100.0 then invalid_arg "Log_histogram.percentile: range";
    let rank =
      Stdlib.max 1
        (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)))
    in
    let clamp v = Stdlib.max t.min (Stdlib.min t.max v) in
    if rank <= t.underflow then clamp t.lo
    else begin
      let seen = ref t.underflow in
      let result = ref None in
      let nb = Array.length t.counts in
      let i = ref 0 in
      while !result = None && !i < nb do
        seen := !seen + t.counts.(!i);
        if rank <= !seen then begin
          let blo, bhi = bucket_bounds t !i in
          result := Some (clamp (sqrt (blo *. bhi)))
        end;
        incr i
      done;
      match !result with Some v -> v | None -> t.max
    end

  let merge dst src =
    if
      dst.lo <> src.lo || dst.growth <> src.growth
      || Array.length dst.counts <> Array.length src.counts
    then invalid_arg "Log_histogram.merge: geometry mismatch";
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.underflow <- dst.underflow + src.underflow;
    dst.overflow <- dst.overflow + src.overflow;
    dst.n <- dst.n + src.n;
    dst.total <- dst.total +. src.total;
    if src.min < dst.min then dst.min <- src.min;
    if src.max > dst.max then dst.max <- src.max

  let clear t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.underflow <- 0;
    t.overflow <- 0;
    t.n <- 0;
    t.total <- 0.0;
    t.min <- Float.infinity;
    t.max <- Float.neg_infinity

  let pp ppf t =
    if t.n = 0 then Format.fprintf ppf "(empty)"
    else
      Format.fprintf ppf "n=%d mean=%.6g min=%.6g max=%.6g p50=%.6g p99=%.6g"
        t.n (mean t) t.min t.max (percentile t 50.0) (percentile t 99.0)
end
