type t = { mutable state : int64 }

(* SplitMix64 (Steele, Lea, Flood 2014): passes BigCrush, two
   multiplications and three xor-shifts per draw, and trivially
   splittable. *)

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }
let copy t = { state = t.state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = mix (bits64 t) }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let rec draw () =
    let bits = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem bits bound64 in
    if Int64.(sub (add (sub bits v) bound64) 1L) < 0L then draw ()
    else Int64.to_int v
  in
  draw ()

let bool t = Int64.logand (bits64 t) 1L = 1L

let uniform t =
  (* 53 high-quality bits into [0,1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float t x = uniform t *. x
let range t lo hi = lo +. (uniform t *. (hi -. lo))

let gaussian t =
  (* Box-Muller. One of the pair is discarded so that consecutive
     draws stay independent of call parity. *)
  let u1 = 1.0 -. uniform t (* in (0,1] so log is finite *) in
  let u2 = uniform t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let lognormal t ~median ~sigma =
  if median <= 0.0 then invalid_arg "Rng.lognormal: median must be positive";
  if sigma < 0.0 then invalid_arg "Rng.lognormal: sigma must be non-negative";
  median *. exp (sigma *. gaussian t)

let pareto t ~scale ~shape =
  if scale <= 0.0 then invalid_arg "Rng.pareto: scale must be positive";
  if shape <= 0.0 then invalid_arg "Rng.pareto: shape must be positive";
  let u = 1.0 -. uniform t (* in (0,1] *) in
  scale /. (u ** (1.0 /. shape))

let assign ~dst ~src = dst.state <- src.state

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1.0 -. uniform t (* in (0,1] so log is finite *) in
  -.log u /. rate

let poisson t ~mean =
  if mean < 0.0 then invalid_arg "Rng.poisson: mean must be non-negative";
  if mean = 0.0 then 0
  else if mean < 50.0 then begin
    (* Knuth: multiply uniforms until below exp(-mean). *)
    let threshold = exp (-.mean) in
    let rec count k p =
      let p = p *. uniform t in
      if p <= threshold then k else count (k + 1) p
    in
    count 0 1.0
  end
  else begin
    (* Normal approximation, adequate for workload generation. *)
    let u1 = 1.0 -. uniform t and u2 = uniform t in
    let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
    let v = mean +. (sqrt mean *. z) in
    if v < 0.0 then 0 else int_of_float (Float.round v)
  end

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))
