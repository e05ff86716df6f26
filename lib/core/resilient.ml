(** The failure-handling variant of Section 6: token timeouts and
    WARNING messages, the two-phase token invalidation protocol
    (ENQUIRY / RESUME / INVALIDATE), and failed-arbiter takeover by the
    previous arbiter (PROBE). This is the deployment preset, so it also
    turns on the Section 3.1 option: the tail of a singleton dispatch
    gets its NEW-ARBITER inside the PRIVILEGE instead of as a separate
    message. The paper presets keep Eq. 1's accounting. *)

include Protocol

let name = "bc-resilient"

let config ?(token_timeout = 5.0) ?(enquiry_timeout = 1.0)
    ?(arbiter_timeout = 5.0) ?(t_collect = 0.1) ~n () =
  {
    (Types.Config.default ~n) with
    Types.Config.recovery = true;
    skip_new_arbiter_to_tail = true;
    token_timeout;
    enquiry_timeout;
    arbiter_timeout;
    t_collect;
  }
