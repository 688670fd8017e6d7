#include "perfbench/src/harness.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <malloc.h>
#include <thread>

#include "src/util/fs_util.h"

namespace perfbench {

namespace {

thread_local uint64_t t_parent = 0;

void SleepSeconds(double s) {
  if (s > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  }
}

}  // namespace

const char* PhaseName(int phase) {
  static const char* const kNames[kNumPhases] = {
      "setup", "backup_full", "backup_incr", "reopen", "restore", "retention", "gc", "verify"};
  return phase >= 0 && phase < kNumPhases ? kNames[phase] : "unknown";
}

// ------------------------------------------------------------- span log --

SpanLog::Scope::Scope(SpanLog* log, SpanKind kind, uint8_t op, int cloud)
    : log_(log != nullptr && log->enabled() ? log : nullptr) {
  if (log_ == nullptr) {
    return;
  }
  span_.id = log_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_parent;
  span_.kind = kind;
  span_.op = op;
  span_.cloud = cloud;
  span_.phase = log_->phase();
  saved_parent_ = t_parent;
  t_parent = span_.id;
  span_.start_ns = NowNs();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) {
    return;
  }
  span_.end_ns = NowNs();
  t_parent = saved_parent_;
  std::lock_guard<std::mutex> lock(log_->mu_);
  log_->spans_.push_back(span_);
}

std::vector<Span> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

// ------------------------------------------------------------ transport --

Result<Bytes> CloudTransport::Call(ConstByteSpan request) {
  using cdstore::MsgType;
  const MsgType type = cdstore::PeekType(request);
  SpanLog::Scope rpc(log_, SpanKind::kRpc, static_cast<uint8_t>(type), cloud_);
  request_bytes_.fetch_add(request.size(), std::memory_order_relaxed);
  if (type == MsgType::kPutFileRequest) {
    std::lock_guard<std::mutex> lock(mu_);
    last_put_file_.assign(request.begin(), request.end());
  }
  const bool wire = link_.limited() && wire_on_.load(std::memory_order_relaxed);
  if (wire) {
    SleepSeconds(link_.latency_s + static_cast<double>(request.size()) / link_.bytes_per_s);
  }
  Bytes reply = Handle(request);
  if (wire && !reply.empty()) {
    SleepSeconds(static_cast<double>(reply.size()) / link_.bytes_per_s);
  }
  if (recorder_) {
    recorder_(cloud_, request, reply);
  }
  if (rpc.active()) {
    // Decoded outside the handler span so the server's busy time is clean.
    Span& s = rpc.span();
    s.bytes_in = request.size();
    s.bytes_out = reply.size();
    if (type == MsgType::kFpQueryRequest) {
      cdstore::FpQueryReply r;
      if (cdstore::Decode(reply, &r).ok()) {
        s.items = r.duplicate.size();
        s.hits = static_cast<uint64_t>(std::count(r.duplicate.begin(), r.duplicate.end(), 1));
      }
    } else if (type == MsgType::kUploadSharesRequest) {
      cdstore::UploadSharesRequestView v;
      if (cdstore::DecodeView(request, &v).ok()) {
        for (ConstByteSpan share : v.shares) {
          s.items += share.size();
        }
      }
    }
  }
  return reply;
}

Bytes CloudTransport::Handle(ConstByteSpan request) {
  SpanLog::Scope h(log_, SpanKind::kHandler, request.empty() ? 0 : request[0], cloud_);
  return server_.load()->Handle(request);
}

Bytes CloudTransport::last_put_file() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_put_file_;
}

// -------------------------------------------------------------- backend --

Status CloudBackend::Put(const std::string& name, ConstByteSpan data) {
  SpanLog::Scope s(log_, SpanKind::kBackend, static_cast<uint8_t>(BackendOp::kPut), cloud_);
  s.span().bytes_in = data.size();
  return mem_.Put(name, data);
}

Result<Bytes> CloudBackend::Get(const std::string& name) {
  SpanLog::Scope s(log_, SpanKind::kBackend, static_cast<uint8_t>(BackendOp::kGet), cloud_);
  Result<Bytes> r = mem_.Get(name);
  if (r.ok()) {
    s.span().bytes_out = r.value().size();
  }
  return r;
}

Status CloudBackend::Delete(const std::string& name) {
  SpanLog::Scope s(log_, SpanKind::kBackend, static_cast<uint8_t>(BackendOp::kDelete), cloud_);
  return mem_.Delete(name);
}

Result<std::vector<std::string>> CloudBackend::List() {
  SpanLog::Scope s(log_, SpanKind::kBackend, static_cast<uint8_t>(BackendOp::kList), cloud_);
  return mem_.List();
}

bool CloudBackend::Exists(const std::string& name) {
  SpanLog::Scope s(log_, SpanKind::kBackend, static_cast<uint8_t>(BackendOp::kExists), cloud_);
  return mem_.Exists(name);
}

// ----------------------------------------------------------------- sink --

Status VerifySink::Append(ConstByteSpan data) {
  SpanLog::Scope s(log_, SpanKind::kSink, 0, -1);
  s.span().bytes_in = data.size();
  if (offset_ + data.size() > expected_.size() ||
      std::memcmp(data.data(), expected_.data() + offset_, data.size()) != 0) {
    mismatch_ = true;
  }
  offset_ += data.size();
  return Status::Ok();
}

// ----------------------------------------------------------- deployment --

Result<std::unique_ptr<Deployment>> Deployment::Create(const DeploymentOptions& options) {
  std::unique_ptr<Deployment> d(new Deployment(options));
  RETURN_IF_ERROR(cdstore::CreateDirs(options.dir));
  for (int i = 0; i < options.n; ++i) {
    d->backends_.push_back(std::make_unique<CloudBackend>(i, options.log));
    d->transports_.push_back(std::make_unique<CloudTransport>(i, options.link, options.log));
  }
  RETURN_IF_ERROR(d->OpenServers());
  return d;
}

Deployment::~Deployment() {
  CloseServers();
  std::error_code ec;
  std::filesystem::remove_all(opts_.dir, ec);
}

Status Deployment::OpenServers() {
  for (int i = 0; i < opts_.n; ++i) {
    cdstore::ServerOptions so;
    so.index_dir = opts_.dir + "/server" + std::to_string(i);
    so.container_cache_bytes = opts_.container_cache_bytes;
    so.metrics = opts_.metrics;
    auto server = cdstore::CdstoreServer::Create(backends_[i].get(), so);
    if (!server.ok()) {
      return server.status();
    }
    servers_.push_back(std::move(server.value()));
    transports_[i]->Bind(servers_.back().get());
  }
  return Status::Ok();
}

void Deployment::CloseServers() {
  for (auto& t : transports_) {
    t->Bind(nullptr);
  }
  servers_.clear();  // destructors seal open containers
}

Status Deployment::Reopen() {
  CloseServers();
  return OpenServers();
}

void Deployment::SetWire(bool on) {
  for (auto& t : transports_) {
    t->set_wire(on);
  }
}

std::vector<cdstore::Transport*> Deployment::transports() const {
  std::vector<cdstore::Transport*> out;
  for (const auto& t : transports_) {
    out.push_back(t.get());
  }
  return out;
}

uint64_t Deployment::BackendBytes() const {
  uint64_t total = 0;
  for (const auto& b : backends_) {
    total += b->total_bytes();
  }
  return total;
}

uint64_t Deployment::PhysicalShareBytes() const {
  uint64_t total = 0;
  for (const auto& s : servers_) {
    total += s->physical_share_bytes();
  }
  return total;
}

uint64_t Deployment::RequestBytes() const {
  uint64_t total = 0;
  for (const auto& t : transports_) {
    total += t->request_bytes();
  }
  return total;
}

void Deployment::IndexDirUsage(uint64_t* bytes, uint64_t* files) const {
  *bytes = 0;
  *files = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(opts_.dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      *bytes += it->file_size(ec);
      *files += 1;
    }
  }
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace perfbench
