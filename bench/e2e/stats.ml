(* Order statistics for the end-to-end benchmark: exact nearest-rank
   percentiles over recorded samples, per-batch summaries for the
   steady-state check, and quantile estimates from bucketed
   histograms (the registry's log2 buckets and a finer log-scale
   histogram for the traced run's hot-path timings). *)

(* Growable buffer of unboxed floats: a live window records a few
   hundred thousand latencies, cheaper kept flat than as a list. The
   buffer lives outside the OCaml heap, with room for 4M samples, more
   than a 60 s window records, left uninitialized: the kernel maps a
   page only when samples reach it. So the buffers add to the peak RSS
   the benchmark reports only in proportion to the samples kept. A
   buffer inside the heap would either step the RSS up wherever a
   faster run crossed a doubling, or, made that large from the start,
   count as live heap and let the collector keep twice as much garbage
   as before. *)
module Samples = struct
  type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
  type t = { mutable data : buf; mutable len : int }

  let buffer n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
  let create () = { data = buffer (1 lsl 22); len = 0 }

  let add t v =
    if t.len = Bigarray.Array1.dim t.data then begin
      let bigger = buffer (2 * t.len) in
      Bigarray.Array1.blit t.data (Bigarray.Array1.sub bigger 0 t.len);
      t.data <- bigger
    end;
    t.data.{t.len} <- v;
    t.len <- t.len + 1

  let length t = t.len
  let get t i = t.data.{i}
  let to_array t = Array.init t.len (get t)
  let clear t = t.len <- 0

  (* The [k]th smallest (0-based) of the samples, by quickselect in
     place: reorders the buffer but allocates nothing, so a window of
     a million samples leaves no garbage to swell the peak RSS the
     benchmark itself reports. *)
  let select t k =
    let a = t.data in
    let lo = ref 0 and hi = ref (t.len - 1) in
    while !lo < !hi do
      let pivot = a.{(!lo + !hi) / 2} in
      let i = ref !lo and j = ref !hi in
      while !i <= !j do
        while a.{!i} < pivot do incr i done;
        while a.{!j} > pivot do decr j done;
        if !i <= !j then begin
          let x = a.{!i} in
          a.{!i} <- a.{!j};
          a.{!j} <- x;
          incr i;
          decr j
        end
      done;
      if k <= !j then hi := !j
      else if k >= !i then lo := !i
      else begin
        lo := k;
        hi := k
      end
    done;
    a.{k}
end

(* Index, in ascending order, of the nearest-rank [p]th percentile of
   [n] samples: the smallest sample with at least [p]% of the samples
   at or below it. *)
let rank_index n p =
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  max 0 (min (n - 1) (rank - 1))

(* Nearest-rank percentile of an ascending array; [nan] when empty. *)
let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(rank_index n p)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let percentile a p = percentile_sorted (sorted a) p

(* A percentile is reported only when at least ten samples lie beyond
   it, so one outlier cannot be the whole tail: p99 needs 1000. *)
let min_samples p =
  int_of_float (Float.ceil (10.0 /. (1.0 -. (p /. 100.0)) -. 1e-9))

let supports ~p n = n >= min_samples p

let mean a =
  let n = Array.length a in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n

(* The median of a small set of repeats (set-up times, batches). *)
let median a = percentile a 50.0

(* The quartile of per-slice readings on the better side: the 25th
   percentile of a quantity where lower is better, the 75th of one
   where higher is better. *)
let better_quartile ~lower a = percentile a (if lower then 25.0 else 75.0)

(* One batch of a window split into equal slices by event time. *)
type batch = {
  count : int;
  rate : float;  (** samples per second *)
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summarize ~seconds a =
  let s = sorted a in
  {
    count = Array.length a;
    rate = float_of_int (Array.length a) /. seconds;
    mean = mean a;
    p50 = percentile_sorted s 50.0;
    p90 = percentile_sorted s 90.0;
    p99 = percentile_sorted s 99.0;
  }

(* The same summary of a sample buffer, computed in place. *)
let summarize_samples ~seconds (t : Samples.t) =
  let n = Samples.length t in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. Samples.get t i
  done;
  let pick p = if n = 0 then nan else Samples.select t (rank_index n p) in
  let p50 = pick 50.0 in
  let p90 = pick 90.0 in
  let p99 = pick 99.0 in
  {
    count = n;
    rate = float_of_int n /. seconds;
    mean = (if n = 0 then nan else !total /. float_of_int n);
    p50;
    p90;
    p99;
  }

(* Split [(times.(i), values.(i))] samples falling in [t0, t1) into [k]
   equal time slices, each summarized: count, rate per second, mean,
   median and p99 of the values. *)
let batches ~t0 ~t1 ~k times values =
  let width = (t1 -. t0) /. float_of_int k in
  let slot t =
    if t >= t0 && t < t1 then min (k - 1) (int_of_float ((t -. t0) /. width))
    else -1
  in
  let counts = Array.make k 0 in
  Array.iter (fun t -> let b = slot t in if b >= 0 then counts.(b) <- counts.(b) + 1) times;
  let slots = Array.map (fun c -> Array.make c 0.0) counts in
  let fill = Array.make k 0 in
  Array.iteri
    (fun i t ->
      let b = slot t in
      if b >= 0 then begin
        slots.(b).(fill.(b)) <- values.(i);
        fill.(b) <- fill.(b) + 1
      end)
    times;
  Array.map (summarize ~seconds:width) slots

(* Quantile from the registry's log2-bucketed histogram: the upper
   bound of the bucket holding the [q]-th observation, so the estimate
   errs high by at most a factor of two. [nan] when empty. *)
let histo_quantile (h : Dmutex_obs.Registry.histo) q =
  if h.Dmutex_obs.Registry.h_count = 0 then nan
  else
    let target =
      max 1
        (int_of_float
           (Float.ceil (q *. float_of_int h.Dmutex_obs.Registry.h_count)))
    in
    let rec walk acc = function
      | [] -> h.Dmutex_obs.Registry.h_max
      | (bound, c) :: rest ->
          if acc + c >= target then bound else walk (acc + c) rest
    in
    walk 0 h.Dmutex_obs.Registry.h_buckets

(* Log-scale histogram with sixteen buckets per power of two (each
   about 4.4% wide), for timings recorded too often to keep every
   sample. Values are positive; anything at or below 2^-20 lands in
   the lowest bucket. Not thread-safe: callers serialize. *)
module Loghist = struct
  let per_octave = 16
  let lo_exp = -20
  let hi_exp = 40
  let n = (hi_exp - lo_exp) * per_octave

  type t = { counts : int array; mutable total : int }

  let create () = { counts = Array.make n 0; total = 0 }

  let add t v =
    let i =
      if v <= 0.0 then 0
      else
        int_of_float
          (Float.ceil (Float.log2 v *. float_of_int per_octave))
        - (lo_exp * per_octave)
    in
    let i = max 0 (min (n - 1) i) in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1

  let upper i =
    Float.pow 2.0
      (float_of_int (i + (lo_exp * per_octave)) /. float_of_int per_octave)

  let quantile t q =
    if t.total = 0 then nan
    else
      let target = max 1 (int_of_float (Float.ceil (q *. float_of_int t.total))) in
      let rec walk i acc =
        if i >= n then upper (n - 1)
        else
          let acc = acc + t.counts.(i) in
          if acc >= target then upper i else walk (i + 1) acc
      in
      walk 0 0

  let reset t =
    Array.fill t.counts 0 n 0;
    t.total <- 0
end
