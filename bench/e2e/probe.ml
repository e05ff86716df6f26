(* Readings taken at the edges of a measured window: process CPU time,
   memory and thread count from the kernel, allocation from the GC,
   and counter/histogram deltas from the metrics registries the nodes
   already keep. *)

module Registry = Dmutex_obs.Registry

(* User plus system time of the whole process: every node, reactor
   domain, session thread and generator of the run. *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A "Name:   value kB"-style line of /proc/self/status, as an int. *)
let status_field field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let prefix = field ^ ":" in
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.starts_with ~prefix line then
              let rest =
                String.sub line (String.length prefix)
                  (String.length line - String.length prefix)
              in
              match String.split_on_char ' ' (String.trim rest) with
              | v :: _ -> int_of_string_opt v
              | [] -> None
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> nan

let threads () = Option.value ~default:0 (status_field "Threads")

type gc = { alloc_bytes : float; minor : int; major : int }

let gc () =
  let s = Gc.quick_stat () in
  {
    alloc_bytes =
      (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
      *. float_of_int (Sys.word_size / 8);
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
  }

(* --- registry deltas ------------------------------------------------ *)

let merged regs =
  Registry.merge (Array.to_list (Array.map Registry.snapshot regs))

let label_is key value (s : Registry.series) =
  List.assoc_opt key s.Registry.labels = Some value

let counter ?(where = fun _ -> true) (snap : Registry.snapshot) name =
  List.fold_left
    (fun acc ((s : Registry.series), v) ->
      if String.equal s.Registry.name name && where s then acc + v else acc)
    0 snap.Registry.counters

let counter_delta ?where a b name = counter ?where b name - counter ?where a name

(* Count, sum and buckets of every series of [name], merged. *)
let histo ?(where = fun _ -> true) (snap : Registry.snapshot) name =
  let buckets = Hashtbl.create 16 in
  let count, sum =
    List.fold_left
      (fun (c, s) ((series : Registry.series), (h : Registry.histo)) ->
        if String.equal series.Registry.name name && where series then begin
          List.iter
            (fun (b, k) ->
              Hashtbl.replace buckets b
                (k + Option.value ~default:0 (Hashtbl.find_opt buckets b)))
            h.Registry.h_buckets;
          (c + h.Registry.h_count, s +. h.Registry.h_sum)
        end
        else (c, s))
      (0, 0.0) snap.Registry.histograms
  in
  (count, sum, buckets)

(* The observations made between snapshots [a] and [b]. *)
let histo_delta ?where a b name : Registry.histo =
  let ca, sa, ba = histo ?where a name in
  let cb, sb, bb = histo ?where b name in
  let buckets =
    Hashtbl.fold
      (fun bound k acc ->
        let d = k - Option.value ~default:0 (Hashtbl.find_opt ba bound) in
        if d > 0 then (bound, d) :: acc else acc)
      bb []
    |> List.sort compare
  in
  let hi = match List.rev buckets with (b, _) :: _ -> b | [] -> nan in
  let lo = match buckets with (b, _) :: _ -> b | [] -> nan in
  {
    Registry.h_count = cb - ca;
    h_sum = sb -. sa;
    h_min = lo;
    h_max = hi;
    h_buckets = buckets;
  }

let histo_mean (h : Registry.histo) =
  if h.Registry.h_count = 0 then 0.0
  else h.Registry.h_sum /. float_of_int h.Registry.h_count
