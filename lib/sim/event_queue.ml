(* Entry [i] of the heap is [(times.(i), seqs.(i), values.(i))].  Keeping
   the timestamps unboxed in their own array means a sift compares floats
   straight out of memory and moves no entry records around: there are
   none to allocate. *)
type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let initial_capacity = 64
let no_times = Float.Array.create 0

let create () =
  { times = no_times; seqs = [||]; values = [||]; size = 0; next_seq = 0 }

(* The value array needs a witness element to be created, so storage is
   allocated on the first insertion and doubled from then on. *)
let grow q witness =
  let cap = max initial_capacity (2 * Array.length q.values) in
  let times = Float.Array.create cap in
  Float.Array.blit q.times 0 times 0 q.size;
  let seqs = Array.make cap 0 in
  Array.blit q.seqs 0 seqs 0 q.size;
  let values = Array.make cap witness in
  Array.blit q.values 0 values 0 q.size;
  q.times <- times;
  q.seqs <- seqs;
  q.values <- values

(* Sift the entry at index [src] down from the hole at index [hole]:
   children earlier than it move up into the hole until it fits.  [src]
   must be the hole itself or lie outside [0, size). *)
let sift_down q ~size ~hole ~src =
  let times = q.times and seqs = q.seqs and values = q.values in
  let time = Float.Array.unsafe_get times src in
  let seq = Array.unsafe_get seqs src in
  let value = Array.unsafe_get values src in
  let i = ref hole in
  let sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= size then sifting := false
    else begin
      let r = l + 1 in
      let c =
        if r < size then begin
          let lt = Float.Array.unsafe_get times l
          and rt = Float.Array.unsafe_get times r in
          if rt < lt
             || (rt = lt && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
          then r
          else l
        end
        else l
      in
      let ct = Float.Array.unsafe_get times c in
      let cs = Array.unsafe_get seqs c in
      if ct < time || (ct = time && cs < seq) then begin
        Float.Array.unsafe_set times !i ct;
        Array.unsafe_set seqs !i cs;
        Array.unsafe_set values !i (Array.unsafe_get values c);
        i := c
      end
      else sifting := false
    end
  done;
  Float.Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set values !i value

let add_reserved q ~time ~seq value =
  if Float.is_nan time then invalid_arg "Event_queue.add: NaN time";
  if q.size = Array.length q.values then grow q value;
  let times = q.times and seqs = q.seqs and values = q.values in
  (* Sift up from a hole at the end. *)
  let i = ref q.size in
  let sifting = ref true in
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = Float.Array.unsafe_get times p in
    let ps = Array.unsafe_get seqs p in
    if time < pt || (time = pt && seq < ps) then begin
      Float.Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i ps;
      Array.unsafe_set values !i (Array.unsafe_get values p);
      i := p
    end
    else sifting := false
  done;
  Float.Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set values !i value;
  q.size <- q.size + 1

let reserve q =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  seq

let add q ~time value = add_reserved q ~time ~seq:(reserve q) value

let min_time q =
  if q.size = 0 then invalid_arg "Event_queue.min_time: empty queue";
  Float.Array.get q.times 0

let take q =
  if q.size = 0 then invalid_arg "Event_queue.take: empty queue";
  let top = q.values.(0) in
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then sift_down q ~size:last ~hole:0 ~src:last;
  (* Overwrite the vacated slot so it does not pin the entry that was
     moved up; the taken value is returned anyway. *)
  q.values.(last) <- top;
  top

let peek q = if q.size = 0 then None else Some (min_time q, q.values.(0))

let pop q =
  if q.size = 0 then None
  else
    let time = min_time q in
    Some (time, take q)

let is_empty q = q.size = 0
let length q = q.size

let clear q =
  q.times <- no_times;
  q.seqs <- [||];
  q.values <- [||];
  q.size <- 0

let filter q keep =
  let kept = ref 0 in
  for i = 0 to q.size - 1 do
    let v = q.values.(i) in
    if keep v then begin
      Float.Array.set q.times !kept (Float.Array.get q.times i);
      q.seqs.(!kept) <- q.seqs.(i);
      q.values.(!kept) <- v;
      incr kept
    end
  done;
  if !kept = 0 then clear q
  else begin
    (* Dropped slots must not pin their values. *)
    Array.fill q.values !kept (q.size - !kept) q.values.(0);
    q.size <- !kept;
    (* Floyd's bottom-up heap construction. *)
    for i = (!kept / 2) - 1 downto 0 do
      sift_down q ~size:!kept ~hole:i ~src:i
    done
  end

let fold q ~init ~f =
  let acc = ref init in
  for i = 0 to q.size - 1 do
    acc := f !acc (Float.Array.get q.times i) q.values.(i)
  done;
  !acc
