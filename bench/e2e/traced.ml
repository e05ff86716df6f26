(* Timing wrappers for the traced run, applied at the library's functor
   seams so no library file changes: [Algo] wraps a protocol's pure
   [handle] and [Codec] wraps the wire codec. The traced run passes the
   wrapped modules to [Node_runner.Make], [Session.Make] and
   [Sim_runner.Make] exactly where the untraced run passes the plain
   ones. *)

module Algo
    (A : Dmutex.Types.ALGO
           with type state = Dmutex.Protocol.state
            and type message = Dmutex.Protocol.message) :
  Dmutex.Types.ALGO
    with type state = A.state
     and type message = A.message
     and type timer = A.timer = struct
  include A

  (* The requester an input names: a REQUEST carries (node, seq); a
     local request is this node's next sequence number. *)
  let requester (st : state) = function
    | Dmutex.Types.Receive (_, Dmutex.Protocol.Request e) ->
        (e.Dmutex.Qlist.node, e.Dmutex.Qlist.seq)
    | Dmutex.Types.Request_cs | Dmutex.Types.Request_shared_cs ->
        (st.Dmutex.Protocol.me, st.Dmutex.Protocol.next_seq)
    | _ -> (-1, -1)

  let handle cfg ~now st input =
    let sampled = Spans.sampled Spans.Step in
    let scope = Spans.parent_scope () in
    if not (sampled || scope.Spans.span >= 0) then A.handle cfg ~now st input
    else begin
      let start = Unix.gettimeofday () in
      let r = A.handle cfg ~now st input in
      let stop = Unix.gettimeofday () in
      let rnode, rseq = requester st input in
      Spans.record ~aggregate:sampled Spans.Step ~start ~stop
        ~parent:scope.Spans.span ~node:st.Dmutex.Protocol.me
        ~lock:scope.Spans.s_lock ~rnode ~rseq ~bytes:0;
      r
    end
end

module Codec (C : Wire.CODEC) : Wire.CODEC with type message = C.message =
struct
  type message = C.message

  let timed kind f x ~bytes =
    if not (Spans.sampled kind) then f x
    else begin
      let start = Unix.gettimeofday () in
      let r = f x in
      let stop = Unix.gettimeofday () in
      Spans.record kind ~start ~stop ~parent:(-1) ~node:(-1) ~lock:""
        ~rnode:(-1) ~rseq:(-1) ~bytes:(bytes x r);
      r
    end

  let encode = timed Spans.Encode C.encode ~bytes:(fun _ s -> String.length s)
  let decode = timed Spans.Decode C.decode ~bytes:(fun s _ -> String.length s)
end
