let light_load_messages ~n =
  let nf = float_of_int n in
  ((nf *. nf) -. 1.0) /. nf

let heavy_load_messages ~n = 3.0 -. (2.0 /. float_of_int n)

let light_load_service_time (cfg : Types.Config.t) =
  let nf = float_of_int cfg.n in
  ((1.0 -. (1.0 /. nf)) *. 2.0 *. cfg.t_msg) +. cfg.t_collect +. cfg.t_exec

let heavy_load_service_time (cfg : Types.Config.t) =
  let nf = float_of_int cfg.n in
  ((1.0 -. (1.0 /. nf)) *. cfg.t_msg)
  +. cfg.t_collect
  +. (((nf /. 2.0) +. 1.0) *. (cfg.t_msg +. cfg.t_exec))

let utilization (cfg : Types.Config.t) ~rate =
  float_of_int cfg.n *. rate *. (cfg.t_msg +. cfg.t_exec)

let predicted_delay (cfg : Types.Config.t) ~rate =
  let rho = utilization cfg ~rate in
  if rho >= 1.0 then None
  else
    let s = cfg.t_msg +. cfg.t_exec in
    let nf = float_of_int cfg.n in
    (* Base latency of an uncontended grant: request hop + residual
       collection window (mean T_req/2) + token hop + execution. *)
    let base =
      ((1.0 -. (1.0 /. nf)) *. 2.0 *. cfg.t_msg)
      +. (cfg.t_collect /. 2.0) +. cfg.t_exec
    in
    (* M/D/1 waiting time with the classic gated-service correction
       (1 + ρ): the collection window serves arrivals in batches, so a
       request also waits out the batch being formed around it. *)
    let wait = rho *. s *. (1.0 +. rho) /. (2.0 *. (1.0 -. rho)) in
    Some (base +. wait)

let no_starvation_bound (cfg : Types.Config.t) =
  cfg.t_msg +. cfg.t_exec +. cfg.t_collect

module Reference = struct
  let ricart_agrawala ~n = 2.0 *. float_of_int (n - 1)
  let suzuki_kasami ~n = float_of_int n
  let maekawa ~n = 3.0 *. sqrt (float_of_int n)
  let central_server = 3.0
end
