#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "bench.h"

namespace perfbench {

namespace {

std::atomic<Tracer *> g_tracer{nullptr};
/** The open batch span job spans on worker threads attach to. */
std::atomic<int> g_batch{-1};
/** Innermost open span on this thread. */
thread_local int t_current = -1;

/** The layer a span belongs to: its name up to the first '.'. */
std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

/** Length of the union of @p iv, each clipped to [lo, hi]. */
double
coveredLength(std::vector<std::pair<double, double>> iv, double lo,
              double hi)
{
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double cur_lo = 0;
    double cur_hi = -1;
    for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a)
            continue;
        if (a > cur_hi) {
            if (cur_hi > cur_lo)
                covered += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
        } else {
            cur_hi = std::max(cur_hi, b);
        }
    }
    if (cur_hi > cur_lo)
        covered += cur_hi - cur_lo;
    return covered;
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tracer *
Tracer::active()
{
    return g_tracer.load(std::memory_order_acquire);
}

void
Tracer::install(Tracer *tracer)
{
    g_tracer.store(tracer, std::memory_order_release);
}

Tracer::Tracer() : origin_(Clock::now()) {}

int
Tracer::threadIndex()
{
    const std::thread::id key = std::this_thread::get_id();
    auto it = threads_.find(key);
    if (it == threads_.end())
        it = threads_.emplace(key, static_cast<int>(threads_.size()))
                 .first;
    return it->second;
}

int
Tracer::begin(const std::string &name, int parent)
{
    const double now = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    Record r;
    r.name = name;
    r.start = now;
    r.parent = parent;
    r.thread = threadIndex();
    records_.push_back(std::move(r));
    return static_cast<int>(records_.size()) - 1;
}

void
Tracer::end(int id)
{
    const double now = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    records_[static_cast<std::size_t>(id)].end = now;
}

std::vector<Tracer::Record>
Tracer::records() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
}

std::map<std::string, double>
Tracer::selfSecondsByLayer(int root) const
{
    const std::vector<Record> recs = records();
    // Parents open before their children, so one forward sweep marks
    // every descendant of root.
    std::vector<char> inside(recs.size(), 0);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const int parent = recs[i].parent;
        inside[i] = static_cast<int>(i) == root ||
                    (parent >= 0 && inside[static_cast<std::size_t>(parent)]);
    }
    std::vector<std::vector<std::pair<double, double>>> children(
        recs.size());
    for (const Record &r : recs) {
        if (r.parent >= 0 && r.end >= r.start)
            children[static_cast<std::size_t>(r.parent)].push_back(
                {r.start, r.end});
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const Record &r = recs[i];
        if (!inside[i] || r.end < r.start)
            continue;
        self[layerOf(r.name)] +=
            (r.end - r.start) -
            coveredLength(children[i], r.start, r.end);
    }
    return self;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    const std::vector<Record> recs = records();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "[");
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const Record &r = recs[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                     "\"args\":{\"id\":%zu,\"parent\":%d}}",
                     i ? "," : "", r.name.c_str(),
                     layerOf(r.name).c_str(), r.start * 1e6,
                     std::max(0.0, r.end - r.start) * 1e6, r.thread, i,
                     r.parent);
    }
    std::fprintf(f, "\n]\n");
    return std::fclose(f) == 0;
}

Span::Span(const char *name) : tracer_(Tracer::active())
{
    if (tracer_ == nullptr)
        return;
    const int parent = t_current >= 0 ? t_current : g_batch.load();
    id_ = tracer_->begin(name, parent);
    saved_ = t_current;
    t_current = id_;
}

Span::~Span()
{
    if (tracer_ == nullptr)
        return;
    tracer_->end(id_);
    t_current = saved_;
}

BatchSpan::BatchSpan(const char *name)
    : span_(name), saved_(g_batch.load())
{
    if (span_.id() >= 0)
        g_batch.store(span_.id());
}

BatchSpan::~BatchSpan()
{
    g_batch.store(saved_);
}

} // namespace perfbench
