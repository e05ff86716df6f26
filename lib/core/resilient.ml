(** The failure-handling variant of Section 6: token timeouts and
    WARNING messages, the two-phase token invalidation protocol
    (ENQUIRY / RESUME / INVALIDATE), and failed-arbiter takeover by the
    previous arbiter (PROBE). This is the deployment preset, so it also
    turns on the Section 3.1 option: the tail of a singleton dispatch
    gets its NEW-ARBITER inside the PRIVILEGE instead of as a separate
    message, and the idle-window rule ([Config.early_close]): a request
    reaching an arbiter that has held the token through a whole empty
    window dispatches at once. The paper presets keep Eq. 1's
    accounting and its fixed window grid. *)

include Protocol

let name = "bc-resilient"

let config ?(token_timeout = 5.0) ?(enquiry_timeout = 1.0)
    ?(arbiter_timeout = 5.0) ?(t_collect = 0.1) ~n () =
  {
    (Types.Config.default ~n) with
    Types.Config.recovery = true;
    skip_new_arbiter_to_tail = true;
    early_close = true;
    token_timeout;
    enquiry_timeout;
    arbiter_timeout;
    t_collect;
  }
