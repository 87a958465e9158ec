(* Re-exported for code outside the libraries here that still names
   [Mcss_serve.Json]; new code names [Mcss_json.Json]. *)
include Mcss_json.Json
